package rest

import (
	"encoding/xml"
	"net/http"
	"sort"
	"strings"
	"time"

	"azurebench/internal/metrics"
)

// EndpointStats is one endpoint's live counters: request count, error and
// throttle counts, and a latency histogram. Endpoints are keyed by HTTP
// method plus the first path segment ("PUT /blob", "GET /queue", ...), the
// granularity at which the emulator's scalability targets operate.
type EndpointStats struct {
	Endpoint  string
	Count     uint64
	Errors    uint64 // responses with status >= 400
	Throttled uint64 // 503 ServerBusy responses
	Latency   *metrics.Histogram
}

// endpointStats is the mutable interior form behind the stats mutex.
type endpointStats struct {
	count     uint64
	errors    uint64
	throttled uint64
	lat       metrics.Histogram
}

// statusWriter records the status code a handler writes (and the body
// bytes it moves) so the instrumentation can classify the response after
// the fact.
type statusWriter struct {
	http.ResponseWriter
	status  int
	written int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.written += int64(n)
	return n, err
}

// otherEndpoint is the one stats key shared by every request that is not
// a standard method on one of the server's own routes.
const otherEndpoint = "OTHER /other"

// endpointKey reduces a request to its stats key: method + first path
// segment. Both are chosen by the client, so anything outside the routes
// NewServer mounts (and the root path probes hit) or the standard HTTP
// methods maps to otherEndpoint; the stats map, and the /metricsz label
// sets rendered from it, stay bounded whatever a client sends.
func endpointKey(r *http.Request) string {
	path := r.URL.Path
	if path == "" {
		path = "/"
	}
	if i := strings.Index(path[1:], "/"); i >= 0 {
		path = path[:i+1]
	}
	switch path {
	case "/blob", "/queue", "/table", "/healthz", "/metricsz", "/stats", "/":
	default:
		return otherEndpoint
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace:
	default:
		return otherEndpoint
	}
	return r.Method + " " + path
}

// observe records one completed request.
func (s *Server) observe(r *http.Request, status int, d time.Duration) {
	key := endpointKey(r)
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	es := s.stats[key]
	if es == nil {
		es = &endpointStats{}
		s.stats[key] = es
	}
	es.count++
	if status >= 400 {
		es.errors++
	}
	if status == http.StatusServiceUnavailable {
		es.throttled++
	}
	es.lat.Observe(d)
}

// MetricsSnapshot returns a copy of every endpoint's stats, sorted by
// endpoint key. The histograms are copies; callers may merge or mutate
// them freely.
func (s *Server) MetricsSnapshot() []EndpointStats {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	out := make([]EndpointStats, 0, len(s.stats))
	for key, es := range s.stats {
		lat := es.lat // value copy of the fixed-layout histogram
		out = append(out, EndpointStats{
			Endpoint:  key,
			Count:     es.count,
			Errors:    es.errors,
			Throttled: es.throttled,
			Latency:   &lat,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
}

// GeoStats is the account's geo-replication status, the payload behind
// Azure's Get Service Stats operation. Status follows the service's
// vocabulary: "live" (secondary readable and replicating), "bootstrap"
// (initial sync in progress) or "unavailable" (no secondary).
type GeoStats struct {
	Status       string
	LastSyncTime time.Time // zero unless Status is "live"
}

// SetGeoStats installs the provider queried by GET /stats. Without one
// the endpoint reports Status "unavailable", matching an account with no
// geo-redundancy configured.
func (s *Server) SetGeoStats(fn func() GeoStats) {
	s.statsMu.Lock()
	defer s.statsMu.Unlock()
	s.geoStats = fn
}

// storageServiceStatsXML is the Get Service Stats response body.
type storageServiceStatsXML struct {
	XMLName        xml.Name `xml:"StorageServiceStats"`
	GeoReplication struct {
		Status       string `xml:"Status"`
		LastSyncTime string `xml:"LastSyncTime"`
	} `xml:"GeoReplication"`
}

// handleServiceStats serves the geo-replication status as Azure's
// StorageServiceStats XML (the 2011-era Get Service Stats operation,
// reachable on the secondary endpoint of an RA-GRS account).
func (s *Server) handleServiceStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeMethodNotAllowed(w, r)
		return
	}
	s.statsMu.Lock()
	fn := s.geoStats
	s.statsMu.Unlock()
	gs := GeoStats{Status: "unavailable"}
	if fn != nil {
		gs = fn()
	}
	var body storageServiceStatsXML
	body.GeoReplication.Status = gs.Status
	if gs.Status == "live" && !gs.LastSyncTime.IsZero() {
		body.GeoReplication.LastSyncTime = gs.LastSyncTime.UTC().Format(http.TimeFormat)
	}
	writeXML(w, http.StatusOK, body)
}
