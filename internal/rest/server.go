// Package rest serves the storage engines over HTTP, in the spirit of the
// local Azure storage emulator (and its modern successor, Azurite). The
// wire formats follow the 2011-era service: XML bodies for blob block
// lists and queue messages, JSON for table entities, Azure error codes in
// XML error bodies, and the x-ms-* header conventions.
//
// Routing deviates from production Azure in one documented way: the three
// services are mounted under path prefixes (/blob, /queue, /table) on one
// listener instead of per-service hostnames, which keeps a local emulator
// usable without DNS games.
//
// The server optionally enforces the same scalability targets as the
// simulated cloud (500 ops/s per queue and per table partition, 5 000
// ops/s per account), returning 503 ServerBusy exactly like the real
// service so live clients can exercise their retry paths.
package rest

import (
	"context"
	"encoding/xml"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"azurebench/internal/blobstore"
	"azurebench/internal/queuestore"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/trace"
	"azurebench/internal/vclock"
)

// Options configures a Server.
type Options struct {
	// Clock defaults to the wall clock.
	Clock vclock.Clock
	// Throttle enables the scalability-target token buckets.
	Throttle bool
	// QueueOpsPerSec / PartitionOpsPerSec / AccountOpsPerSec override the
	// documented targets when positive (useful in tests).
	QueueOpsPerSec     float64
	PartitionOpsPerSec float64
	AccountOpsPerSec   float64
}

// Server is the HTTP storage emulator.
type Server struct {
	Blob  *blobstore.Store
	Queue *queuestore.Store
	Table *tablestore.Store

	clock vclock.Clock
	mux   *http.ServeMux

	throttle *throttler

	// Per-endpoint request counters and latency histograms, served at
	// /metricsz and via MetricsSnapshot (see stats.go).
	stats [len(endpointNames)]endpointStats

	// traceLog, when attached via SetTrace, records one server-side
	// trace.Op per request, parented under the client span carried by the
	// request's traceparent header; ids mints the server span IDs.
	traceLog *trace.Log
	ids      *trace.IDGen
}

// NewServer builds an emulator with fresh engines.
func NewServer(opts Options) *Server {
	clock := opts.Clock
	if clock == nil {
		clock = vclock.Real{}
	}
	s := &Server{
		Blob:  blobstore.New(clock),
		Queue: queuestore.New(clock),
		Table: tablestore.New(clock),
		clock: clock,
		mux:   http.NewServeMux(),
	}
	if opts.Throttle {
		s.throttle = newThrottler(opts)
	}
	s.mux.HandleFunc("/blob/", s.handleBlob)
	s.mux.HandleFunc("/queue/", s.handleQueue)
	s.mux.HandleFunc("/table/", s.handleTable)
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeBody(w, http.StatusOK, textType, []byte("ok\n"))
	})
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	s.mux.HandleFunc("/stats", s.handleServiceStats)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header()[hVersion] = versionValue
	sw := &statusWriter{ResponseWriter: w}
	var rt *reqTrace
	if s.traceLog != nil {
		rt = &reqTrace{}
		r = r.WithContext(context.WithValue(r.Context(), reqTraceKey{}, rt))
	}
	startAt := time.Now()
	if r.RequestURI == "*" {
		// The asterisk form names the server, not a resource. net/http
		// answers OPTIONS * before any handler; ServeMux would answer the
		// rest with a bare 400.
		writeError(sw, errAsteriskURI)
	} else {
		s.mux.ServeHTTP(sw, r)
	}
	elapsed := time.Since(startAt)
	s.observe(r, sw.status, elapsed)
	if rt != nil {
		s.recordTrace(r, sw, rt, startAt, elapsed)
	}
}

// --- throttling ---

// throttler holds the account bucket plus one bucket per queue and per
// table partition. The per-name buckets live in idle-evicting pools (the
// same ones the simulated cloud uses), so a long run over many partition
// keys does not grow the server without bound.
type throttler struct {
	mu      sync.Mutex
	start   time.Time
	account *storecommon.RateLimiter
	queues  *storecommon.LimiterPool
	parts   *storecommon.LimiterPool
}

func newThrottler(opts Options) *throttler {
	aRate := opts.AccountOpsPerSec
	if aRate <= 0 {
		aRate = storecommon.AccountOpsPerSec
	}
	qRate := opts.QueueOpsPerSec
	if qRate <= 0 {
		qRate = storecommon.QueueOpsPerSec
	}
	pRate := opts.PartitionOpsPerSec
	if pRate <= 0 {
		pRate = storecommon.PartitionOpsPerSec
	}
	return &throttler{
		start:   time.Now(),
		account: storecommon.NewRateLimiter(aRate, aRate/2+1),
		queues:  storecommon.NewLimiterPool(qRate, qRate/10+1),
		parts:   storecommon.NewLimiterPool(pRate, pRate/10+1),
	}
}

// allow charges one transaction against the account plus the optional
// queue/partition scopes.
func (t *throttler) allow(queue, partition string) bool {
	if t == nil {
		return true
	}
	return t.allowAt(time.Since(t.start), queue, partition)
}

// allowAt is allow at an explicit instant since start.
func (t *throttler) allowAt(now time.Duration, queue, partition string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.account.Allow(now, 1) {
		return false
	}
	if queue != "" && !t.queues.Get(now, queue).Allow(now, 1) {
		return false
	}
	if partition != "" && !t.parts.Get(now, partition).Allow(now, 1) {
		return false
	}
	return true
}

// --- error rendering ---

type xmlError struct {
	XMLName xml.Name `xml:"Error"`
	Code    string   `xml:"Code"`
	Message string   `xml:"Message"`
}

// writeError maps a storage error onto the Azure REST error format.
func writeError(w http.ResponseWriter, err error) {
	status := storecommon.StatusOf(err)
	code := string(storecommon.CodeOf(err))
	if code == "" {
		code = string(storecommon.CodeInternalError)
	}
	setHeader(w.Header(), hErrorCode, code)
	body, _ := xml.Marshal(xmlError{Code: code, Message: err.Error()})
	writeBody(w, status, xmlType, body)
}

var errAsteriskURI = storecommon.Errf(storecommon.CodeInvalidURI, 400,
	"the request URI * names no resource")

func writeBusy(w http.ResponseWriter) {
	writeError(w, storecommon.Errf(storecommon.CodeServerBusy, 503,
		"the server is busy; retry after backoff"))
}

func writeMethodNotAllowed(w http.ResponseWriter, r *http.Request) {
	writeError(w, storecommon.Errf(storecommon.CodeUnsupportedHTTPVerb, 405,
		"verb %s not supported here", r.Method))
}

// pathParts splits the path after the service prefix into its first
// segment and whatever follows it, both empty when there is none.
func pathParts(r *http.Request, prefix string) (first, rest string) {
	first, rest, _ = strings.Cut(strings.Trim(strings.TrimPrefix(r.URL.Path, prefix), "/"), "/")
	return first, rest
}

// Header keys in net/http's canonical form. The handlers on the
// per-request path index r.Header and w.Header() with these: Header.Set
// and Get canonicalise their key first, which allocates for every key
// that is not already canonical — all the x-ms-* ones.
const (
	hVersion          = "X-Ms-Version"
	hErrorCode        = "X-Ms-Error-Code"
	hContentType      = "Content-Type"
	hContentLength    = "Content-Length"
	hETag             = "Etag"
	hIfMatch          = "If-Match"
	hLastModified     = "Last-Modified"
	hRange            = "Range"
	hMsRange          = "X-Ms-Range"
	hBlobType         = "X-Ms-Blob-Type"
	hLeaseID          = "X-Ms-Lease-Id"
	hLeaseStatus      = "X-Ms-Lease-Status"
	hNextPartitionKey = "X-Ms-Continuation-Nextpartitionkey"
	hNextRowKey       = "X-Ms-Continuation-Nextrowkey"
	hApproximateCount = "X-Ms-Approximate-Messages-Count"
	hPopReceipt       = "X-Ms-Popreceipt"
	hTimeNextVisible  = "X-Ms-Time-Next-Visible"
)

// Header values every response of a kind shares; net/http reads header
// slices and never writes to them.
var (
	versionValue = []string{"2011-08-18"}
	jsonType     = []string{"application/json"}
	xmlType      = []string{"application/xml"}
	octetType    = []string{"application/octet-stream"}
	textType     = []string{"text/plain; charset=utf-8"}
)

// setHeader is Header.Set for a key already in canonical form.
func setHeader(h http.Header, canonicalKey, value string) {
	h[canonicalKey] = []string{value}
}

// writeBody sends a response with a body: always with Content-Type, so
// net/http does not sniff one, and Content-Length, so it does not chunk.
func writeBody(w http.ResponseWriter, status int, contentType []string, body []byte) {
	h := w.Header()
	h[hContentType] = contentType
	setHeader(h, hContentLength, strconv.Itoa(len(body)))
	w.WriteHeader(status)
	w.Write(body)
}

// readBody reads a request body once, into a buffer of the size the
// client declared; a body of undeclared length grows as it arrives. One
// longer than limit is refused with 413 — unread when its length was
// declared — and never handed on cut short. The buffer is into's when into
// is given and a fresh one the caller may keep otherwise.
func readBody(r *http.Request, limit int64, into *scratch) ([]byte, error) {
	var body []byte
	var err error
	switch n := r.ContentLength; {
	case n > limit:
		return nil, bodyTooLarge(limit)
	case n < 0:
		if body, err = io.ReadAll(io.LimitReader(r.Body, limit+1)); int64(len(body)) > limit {
			return nil, bodyTooLarge(limit)
		}
	case into == nil:
		body = make([]byte, n)
		_, err = io.ReadFull(r.Body, body)
	default:
		into.b = slices.Grow(into.b[:0], int(n))
		body = into.b[:n]
		_, err = io.ReadFull(r.Body, body)
	}
	if err != nil {
		return nil, storecommon.Errf(storecommon.CodeInvalidInput, 400, "reading body: %v", err)
	}
	return body, nil
}

func bodyTooLarge(limit int64) error {
	return storecommon.Errf(storecommon.CodeRequestBodyTooLarge, 413, "request body exceeds %d bytes", limit)
}

// scratch is a pooled buffer for bytes that do not outlive the handler: a
// request body on its way through a decoder that copies what it keeps, a
// response body on its way to the ResponseWriter, which copies it.
type scratch struct{ b []byte }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch { return scratchPool.Get().(*scratch) }

// release returns the buffer to the pool, unless an outsized body grew it
// past what is worth keeping.
func (s *scratch) release() {
	if cap(s.b) <= 1<<20 {
		scratchPool.Put(s)
	}
}
