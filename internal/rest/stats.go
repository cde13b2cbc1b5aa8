package rest

import (
	"encoding/xml"
	"net/http"
	"sort"
	"sync"
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

// endpointStats is one slot of the server's stats table, behind its own
// lock: requests to different endpoints do not contend.
type endpointStats struct {
	mu        sync.Mutex
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

// The stats table has one slot per standard method on each of the
// server's own routes (and the root path probes hit), plus slot 0 for
// everything else. Method and path are chosen by the client; mapping the
// rest to one slot keeps the table, and the /metricsz label sets rendered
// from it, fixed whatever a client sends.
var (
	statMethods = [...]string{http.MethodGet, http.MethodHead, http.MethodPost, http.MethodPut, http.MethodPatch,
		http.MethodDelete, http.MethodConnect, http.MethodOptions, http.MethodTrace}
	statRoutes = [...]string{routeBlob: "/blob", routeQueue: "/queue", routeTable: "/table",
		routeHealthz: "/healthz", routeMetricsz: "/metricsz", routeStats: "/stats", routeRoot: "/"}
)

// The server's routes: a path's first segment, as indexes into statRoutes.
const (
	routeBlob = iota
	routeQueue
	routeTable
	routeHealthz
	routeMetricsz
	routeStats
	routeRoot
)

// otherEndpoint is the one stats key shared by every request that is not
// a standard method on one of the server's own routes.
const otherEndpoint = "OTHER /other"

// endpointNames holds each slot's key: method + first path segment
// ("PUT /blob").
var endpointNames = func() (names [1 + len(statMethods)*len(statRoutes)]string) {
	names[0] = otherEndpoint
	for m, method := range statMethods {
		for r, route := range statRoutes {
			names[1+m*len(statRoutes)+r] = method + " " + route
		}
	}
	return names
}()

// observe records one completed request.
func (s *Server) observe(slot, status int, d time.Duration) {
	es := &s.stats[slot]
	es.mu.Lock()
	defer es.mu.Unlock()
	es.count++
	if status >= 400 {
		es.errors++
	}
	if status == http.StatusServiceUnavailable {
		es.throttled++
	}
	es.lat.Observe(d)
}

// MetricsSnapshot returns a copy of the stats of every endpoint that has
// served a request, sorted by endpoint key. The histograms are copies;
// callers may merge or mutate them freely.
func (s *Server) MetricsSnapshot() []EndpointStats {
	var out []EndpointStats
	for i := range s.stats {
		es := &s.stats[i]
		es.mu.Lock()
		if es.count > 0 {
			lat := es.lat // value copy of the fixed-layout histogram
			out = append(out, EndpointStats{
				Endpoint:  endpointNames[i],
				Count:     es.count,
				Errors:    es.errors,
				Throttled: es.throttled,
				Latency:   &lat,
			})
		}
		es.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Endpoint < out[j].Endpoint })
	return out
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
// reachable on the secondary endpoint of an RA-GRS account). The emulated
// account has no secondary region, so the status is always "unavailable"
// and LastSyncTime empty.
func (s *Server) serveServiceStats(w http.ResponseWriter, r *request) error {
	if r.Method != http.MethodGet {
		return methodNotAllowed(r)
	}
	var body storageServiceStatsXML
	body.GeoReplication.Status = "unavailable"
	writeXML(w, http.StatusOK, body)
	return nil
}
