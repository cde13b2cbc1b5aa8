package rest

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// promName converts an endpoint key ("PUT /blob") into a label-safe
// method/service pair.
func promLabels(endpoint string) (method, service string) {
	method, path, _ := strings.Cut(endpoint, " ")
	service = strings.Trim(path, "/")
	if service == "" {
		service = "root"
	}
	return method, service
}

// serveMetricsz serves the endpoint stats in the Prometheus text
// exposition format (version 0.0.4): one counter family each for
// requests, errors, and throttles, and one histogram family translating
// the fixed log2 layout into cumulative le-buckets. It renders the same
// MetricsSnapshot in-process callers read, so the two always agree.
func (s *Server) serveMetricsz(w http.ResponseWriter, r *request) error {
	if r.Method != http.MethodGet {
		return methodNotAllowed(r)
	}
	var b strings.Builder
	snap := s.MetricsSnapshot()

	b.WriteString("# HELP azurebench_requests_total Requests served, by method and service.\n")
	b.WriteString("# TYPE azurebench_requests_total counter\n")
	for _, es := range snap {
		m, svc := promLabels(es.Endpoint)
		fmt.Fprintf(&b, "azurebench_requests_total{method=%q,service=%q} %d\n", m, svc, es.Count)
	}
	b.WriteString("# HELP azurebench_request_errors_total Responses with status >= 400.\n")
	b.WriteString("# TYPE azurebench_request_errors_total counter\n")
	for _, es := range snap {
		m, svc := promLabels(es.Endpoint)
		fmt.Fprintf(&b, "azurebench_request_errors_total{method=%q,service=%q} %d\n", m, svc, es.Errors)
	}
	b.WriteString("# HELP azurebench_request_throttled_total 503 ServerBusy responses.\n")
	b.WriteString("# TYPE azurebench_request_throttled_total counter\n")
	for _, es := range snap {
		m, svc := promLabels(es.Endpoint)
		fmt.Fprintf(&b, "azurebench_request_throttled_total{method=%q,service=%q} %d\n", m, svc, es.Throttled)
	}

	b.WriteString("# HELP azurebench_request_duration_seconds Request latency.\n")
	b.WriteString("# TYPE azurebench_request_duration_seconds histogram\n")
	for _, es := range snap {
		m, svc := promLabels(es.Endpoint)
		cum := es.Latency.CumulativeBuckets()
		// Collapse empty leading/trailing runs is legal but Prometheus
		// clients expect monotone cumulative buckets; emit only buckets
		// whose cumulative count changes, plus the mandatory +Inf.
		var prev uint64
		for i, cb := range cum {
			last := i == len(cum)-1
			if cb.Count == prev && !last {
				continue
			}
			le := "+Inf"
			if !last {
				le = formatSeconds(cb.Hi)
			}
			fmt.Fprintf(&b, "azurebench_request_duration_seconds_bucket{method=%q,service=%q,le=%q} %d\n",
				m, svc, le, cb.Count)
			prev = cb.Count
		}
		fmt.Fprintf(&b, "azurebench_request_duration_seconds_sum{method=%q,service=%q} %s\n",
			m, svc, formatSeconds(es.Latency.Total()))
		fmt.Fprintf(&b, "azurebench_request_duration_seconds_count{method=%q,service=%q} %d\n",
			m, svc, es.Latency.Count())
	}
	writeBody(w, http.StatusOK, promType, []byte(b.String()))
	return nil
}

// promType is the content type of the Prometheus text exposition format.
var promType = []string{"text/plain; version=0.0.4; charset=utf-8"}

// formatSeconds renders a duration as decimal seconds without float
// artifacts (trailing zeros trimmed).
func formatSeconds(d time.Duration) string {
	s := strconv.FormatFloat(d.Seconds(), 'f', 9, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}
