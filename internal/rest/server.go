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
	"encoding/xml"
	"io"
	"net/http"
	"net/url"
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
	if opts.Clock == nil {
		opts.Clock = vclock.Real{}
	}
	s := &Server{
		Blob:  blobstore.New(opts.Clock),
		Queue: queuestore.New(opts.Clock),
		Table: tablestore.New(opts.Clock),
	}
	if opts.Throttle {
		s.throttle = newThrottler(opts)
	}
	return s
}

// ServeHTTP implements http.Handler: it parses the request once, serves
// it, and writes the error a handler returns.
func (s *Server) ServeHTTP(w http.ResponseWriter, hr *http.Request) {
	w.Header()[hVersion] = versionValue
	sw := &statusWriter{ResponseWriter: w}
	startAt := time.Now()
	r, err := parseRequest(hr)
	if s.traceLog != nil {
		r.trace = &reqTrace{}
	}
	if err == nil {
		err = s.serve(sw, &r)
	}
	if err != nil {
		writeError(sw, err)
	}
	elapsed := time.Since(startAt)
	s.observe(r.slot, sw.status, elapsed)
	if r.trace != nil {
		s.recordTrace(&r, sw, startAt, elapsed)
	}
}

// --- routing ---

// request is an HTTP request as the server parses it, once, before any
// handler runs. Resource names are taken as sent: a blob name keeps a
// trailing slash, which the engine refuses.
type request struct {
	*http.Request
	route int // index into statRoutes; -1 for a path outside them
	slot  int // the stats table slot

	// The resource after the service prefix: a container and a blob
	// name; a queue and "messages[/id]"; a table-service resource, which
	// for an entity set or entity is its table, with the keys in pk and rk
	// when keyed.
	name, sub     string
	entity, keyed bool
	pk, rk        string

	query url.Values // parsed on the first param call
	trace *reqTrace  // nil when tracing is off
}

// parseRequest reads the route, the stats slot and the resource names off
// the request line. Its error — an unknown path, a request URI of *, a
// table request naming no resource — is the answer; the slot is set
// either way.
func parseRequest(hr *http.Request) (request, error) {
	r := request{Request: hr}
	path := hr.URL.Path
	if path == "" {
		path = "/"
	}
	seg, tail, nested := path, "", false
	if i := strings.IndexByte(path[1:], '/'); i >= 0 {
		seg, tail, nested = path[:i+1], path[i+2:], true
	}
	r.route = slices.Index(statRoutes[:], seg)
	if m := slices.Index(statMethods[:], hr.Method); m >= 0 && r.route >= 0 {
		r.slot = 1 + m*len(statRoutes) + r.route
	}
	if hr.RequestURI == "*" {
		// The asterisk form names the server, not a resource. net/http
		// answers OPTIONS * itself.
		return r, errAsteriskURI
	}
	switch r.route {
	case routeBlob:
		r.name, r.sub, _ = strings.Cut(tail, "/")
	case routeQueue:
		r.name, r.sub, _ = strings.Cut(strings.TrimRight(tail, "/"), "/")
	case routeTable:
		r.name, _, _ = strings.Cut(strings.TrimRight(tail, "/"), "/")
		switch {
		case r.name == "":
			return r, errNoTableResource
		case r.name != "Tables" && !strings.HasPrefix(r.name, "Tables('"):
			r.entity = true
			r.name, r.pk, r.rk, r.keyed = parseEntityKey(r.name)
		}
	case routeHealthz, routeMetricsz, routeStats:
		if nested {
			return r, errResourceNotFound
		}
	default:
		return r, errResourceNotFound
	}
	return r, nil
}

// param is the query parameter key, from a query parsed at most once.
func (r *request) param(key string) string {
	if r.query == nil && r.URL.RawQuery != "" {
		r.query = r.URL.Query()
	}
	return r.query.Get(key)
}

// intParam reads an optional integer query parameter. A value that is
// present but not a number is the client's error, not the default.
func (r *request) intParam(key string, def int) (int, error) {
	s := r.param(key)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, storecommon.Errf(storecommon.CodeOutOfRangeQueryParameterValue, 400, "%s=%q is not an integer", key, s)
	}
	return n, nil
}

// serve answers a parsed request. A storage request is admitted once, at
// the scopes the scalability targets name — the account, plus the queue
// for a queue's operations and the partition for an entity's — and goes to
// its service's handler.
func (s *Server) serve(w http.ResponseWriter, r *request) error {
	var queue, partition string
	switch {
	case r.route == routeHealthz:
		writeBody(w, http.StatusOK, textType, []byte("ok\n"))
		return nil
	case r.route == routeMetricsz:
		return s.serveMetricsz(w, r)
	case r.route == routeStats:
		return s.serveServiceStats(w, r)
	case r.route == routeQueue:
		queue = r.name
	case r.entity && s.throttle != nil:
		partition = r.name + "|" + r.pk
	}
	if !s.throttle.allow(queue, partition) {
		return errServerBusy
	}
	switch r.route {
	case routeBlob:
		return s.serveBlob(w, r)
	case routeQueue:
		return s.serveQueue(w, r)
	default:
		return s.serveTable(w, r)
	}
}

// reply writes status when err is nil and otherwise returns err, for
// ServeHTTP to write.
func reply(w http.ResponseWriter, status int, err error) error {
	if err == nil {
		w.WriteHeader(status)
	}
	return err
}

// --- throttling ---

// throttler holds the account bucket plus one bucket per queue and per
// table partition. The per-name buckets live in idle-evicting pools (the
// same ones the simulated cloud uses), so a long run over many partition
// keys does not grow the server without bound.
type throttler struct {
	mu      sync.Mutex
	clock   vclock.Clock
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
		clock:   opts.Clock,
		start:   opts.Clock.Now(),
		account: storecommon.NewRateLimiter(aRate, aRate/2+1),
		queues:  storecommon.NewLimiterPool(qRate, qRate/10+1),
		parts:   storecommon.NewLimiterPool(pRate, pRate/10+1),
	}
}

// allow charges one transaction, at the server clock's now, against the
// account plus the optional queue/partition scopes.
func (t *throttler) allow(queue, partition string) bool {
	if t == nil {
		return true
	}
	now := t.clock.Now().Sub(t.start)
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

var (
	errAsteriskURI = storecommon.Errf(storecommon.CodeInvalidURI, 400,
		"the request URI * names no resource")
	errResourceNotFound = storecommon.Errf(storecommon.CodeResourceNotFound, 404,
		"the specified resource does not exist")
	errNoTableResource = storecommon.Errf(storecommon.CodeInvalidInput, 400, "missing table resource")
	errServerBusy      = storecommon.Errf(storecommon.CodeServerBusy, 503,
		"the server is busy; retry after backoff")
)

func methodNotAllowed(r *request) error {
	return storecommon.Errf(storecommon.CodeUnsupportedHTTPVerb, 405, "verb %s not supported here", r.Method)
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
	hSnapshot         = "X-Ms-Snapshot"
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
func readBody(r *request, limit int64, into *scratch) ([]byte, error) {
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
