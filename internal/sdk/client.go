// Package sdk is a Go client library for the storage emulator's REST API
// (package rest) — the reproduction's stand-in for the official Azure
// storage SDK the paper's benchmark is written against. It provides
// typed blob/queue/table clients, Azure error-code surfacing, and the
// paper's retry discipline (back off and retry on ServerBusy).
package sdk

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strings"
	"sync/atomic"
	"time"

	"azurebench/internal/retry"
	"azurebench/internal/storecommon"
	"azurebench/internal/trace"
	"azurebench/internal/vclock"
)

// Client is a connection to one emulator endpoint.
type Client struct {
	// base is the endpoint, parsed once; every request copies it and fills
	// in path and query. basePath and baseRawPath are its path, decoded and
	// encoded, without the trailing slash. baseErr is why baseURL did not
	// parse; every request then fails with it.
	base                  url.URL
	basePath, baseRawPath string
	baseErr               error

	http   *http.Client
	policy retry.Policy
	// jitter supplies the backoff jitter as uniform floats in [0, 1). nil
	// means the process-global math/rand source, which is fine for live
	// traffic but not replayable; the in-package test sets a seeded one.
	jitter func() float64

	// Live retry telemetry (atomic: SDK clients are shared by goroutines).
	retryCount   atomic.Int64
	backoffSlept atomic.Int64 // nanoseconds

	// Tracing (enabled via SetTrace): ids mints W3C traceparent identities
	// stamped into every request header; traceLog, when non-nil, records a
	// client-perceived trace.Op per attempt, with retried attempts chained
	// as parent -> child so live retry storms reconstruct as causal trees.
	ids      *trace.IDGen
	traceLog *trace.Log
	name     string
}

// RetryStats reports how many retries the client has performed and the
// total time it spent sleeping between attempts — the live-mode mirror of
// the simulation's retry-backoff trace spans.
func (c *Client) RetryStats() (retries int64, slept time.Duration) {
	return c.retryCount.Load(), time.Duration(c.backoffSlept.Load())
}

// DefaultRetryPolicy matches the paper's behaviour: retry throttled
// operations (and only those) after a one-second sleep, up to 8 times.
func DefaultRetryPolicy() retry.Policy {
	pol := retry.Paper(time.Second)
	pol.MaxAttempts = 9
	return pol
}

// New creates a client for the emulator at baseURL (e.g.
// "http://127.0.0.1:10000"). A nil httpClient uses http.DefaultClient; the
// zero policy makes a single attempt. Transport-level failures surface as
// ConnectionReset errors, which a policy with a nil Classify retries.
func New(baseURL string, httpClient *http.Client, policy retry.Policy) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	c := &Client{http: httpClient, policy: policy}
	u, err := url.Parse(baseURL)
	if err != nil {
		c.baseErr = err
		return c
	}
	c.base = *u
	c.basePath = strings.TrimRight(u.Path, "/")
	c.baseRawPath = strings.TrimRight(u.EscapedPath(), "/")
	return c
}

// SetTrace enables end-to-end causal tracing: every request carries a
// W3C traceparent header (trace id minted per logical operation, span id
// per attempt, seeded from seed — deterministic, no global rand), and when
// l is non-nil each attempt is also recorded client-side as a trace.Op
// with retry chains linked parent -> child. name labels the ops' Client
// field ("sdk" when empty). Pass l=nil with a seed to stamp headers
// without recording; call with seed=="" to disable tracing entirely.
func (c *Client) SetTrace(l *trace.Log, name, seed string) {
	if seed == "" {
		c.ids, c.traceLog = nil, nil
		return
	}
	c.ids = trace.NewIDGen("sdk/" + seed)
	c.traceLog = l
	if name == "" {
		name = "sdk"
	}
	c.name = name
}

// Trace returns the client-side op log (nil when not recording).
func (c *Client) Trace() *trace.Log { return c.traceLog }

// Blob returns the blob service client.
func (c *Client) Blob() *BlobClient { return &BlobClient{c: c} }

// Queue returns the queue service client.
func (c *Client) Queue() *QueueClient { return &QueueClient{c: c} }

// Table returns the table service client.
func (c *Client) Table() *TableClient { return &TableClient{c: c} }

// request describes one REST call.
type request struct {
	op      string // typed operation name (e.g. "PutBlock"), for tracing
	method  string
	path    string // service-relative and already escaped, e.g. "/blob/c/b"
	query   string // already encoded, keys in the order url.Values.Encode gives them
	headers []header
	body    []byte
}

// header is one request header; key is in net/http's canonical form (the
// constants below), so it goes into the header map as it is.
type header struct{ key, value string }

// Header keys in net/http's canonical form: Header.Set and Get
// canonicalise their key first, which allocates for every key that is not
// already canonical — all the x-ms-* ones.
const (
	hETag              = "Etag"
	hIfMatch           = "If-Match"
	hContentLength     = "Content-Length"
	hLastModified      = "Last-Modified"
	hErrorCode         = "X-Ms-Error-Code"
	hMsRange           = "X-Ms-Range"
	hPageWrite         = "X-Ms-Page-Write"
	hBlobType          = "X-Ms-Blob-Type"
	hBlobContentLength = "X-Ms-Blob-Content-Length"
	hSnapshot          = "X-Ms-Snapshot"
	hLeaseAction       = "X-Ms-Lease-Action"
	hLeaseDuration     = "X-Ms-Lease-Duration"
	hLeaseID           = "X-Ms-Lease-Id"
	hLeaseStatus       = "X-Ms-Lease-Status"
	hNextPartitionKey  = "X-Ms-Continuation-Nextpartitionkey"
	hNextRowKey        = "X-Ms-Continuation-Nextrowkey"
	hApproximateCount  = "X-Ms-Approximate-Messages-Count"
	hPopReceipt        = "X-Ms-Popreceipt"
	hTraceparent       = "Traceparent"
	hBenchOp           = "X-Bench-Op"
)

// response captures what callers need.
type response struct {
	status  int
	headers http.Header
	body    []byte
}

// do executes the request under the client's retry policy and maps REST
// errors to storecommon errors. Transport failures (the connection died
// before an HTTP status arrived) surface as ConnectionReset storage
// errors, which the resilient policies classify as retriable.
func (c *Client) do(req request) (response, error) {
	jitter := c.jitter
	if jitter == nil {
		//azlint:allow seededrand(live-mode default; Client.jitter takes a seeded source for reproducible schedules)
		jitter = rand.Float64
	}
	start := time.Now()
	retries := 0
	var traceID, parentID string
	var backoff time.Duration // slept before the upcoming attempt
	if c.ids != nil {
		traceID = c.ids.TraceID()
	}
	for {
		var spanID string
		var tp string
		if c.ids != nil {
			spanID = c.ids.SpanID()
			tp = trace.Traceparent(traceID, spanID)
		}
		attemptStart := time.Now()
		resp, err := c.once(req, tp)
		if c.traceLog != nil {
			op := trace.Op{
				// Offsets from the shared vclock epoch keep client and
				// server ops on one timeline when the emulator runs on the
				// wall clock.
				Start:    attemptStart.Add(-backoff).Sub(vclock.Epoch),
				Duration: time.Since(attemptStart) + backoff,
				Client:   c.name,
				Service:  trace.ServiceOf(req.path),
				Name:     req.op,
				Bytes:    int64(len(req.body)),
				TraceID:  traceID,
				SpanID:   spanID,
				ParentID: parentID,
			}
			if backoff > 0 {
				op.Spans = append(op.Spans, trace.Span{Stage: trace.StageRetryBackoff, Dur: backoff})
			}
			if err == nil {
				op.Bytes += int64(len(resp.body))
				if resp.status >= 400 {
					op.Err = resp.headers.Get(hErrorCode)
				}
			} else {
				op.Err = string(storecommon.CodeOf(err))
			}
			c.traceLog.Record(op)
		}
		if err == nil && resp.status < 400 {
			return resp, nil
		}
		if err == nil {
			err = decodeError(resp)
		}
		if !c.policy.ShouldRetry(retries, time.Since(start), err) {
			return resp, err
		}
		d := c.policy.Delay(retries, jitter)
		retries++
		c.retryCount.Add(1)
		c.backoffSlept.Add(int64(d))
		parentID = spanID // the next attempt is caused by this one failing
		backoff = d
		time.Sleep(d)
	}
}

// once makes one attempt. The http.Request is assembled directly over a
// copy of the parsed endpoint: nothing is formatted into a URL string only
// to be parsed again.
func (c *Client) once(req request, traceparent string) (response, error) {
	if c.baseErr != nil {
		return response{}, fmt.Errorf("sdk: building request: %w", c.baseErr)
	}
	// The path arrives escaped and goes out as written (RawPath); Path is
	// the decoded form net/http checks it against, the same string unless
	// something was escaped.
	decoded := req.path
	if strings.IndexByte(decoded, '%') >= 0 {
		var err error
		if decoded, err = url.PathUnescape(decoded); err != nil {
			return response{}, fmt.Errorf("sdk: building request: %w", err)
		}
	}
	u := c.base
	u.Path, u.RawPath = c.basePath+decoded, c.baseRawPath+req.path
	u.RawQuery = req.query
	h := make(http.Header, len(req.headers)+2)
	for _, hd := range req.headers {
		h[hd.key] = []string{hd.value}
	}
	if traceparent != "" {
		h[hTraceparent] = []string{traceparent}
		if req.op != "" {
			h[hBenchOp] = []string{req.op}
		}
	}
	hreq := &http.Request{
		Method: req.method, URL: &u, Host: u.Host, Header: h,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
	}
	if len(req.body) > 0 {
		body := req.body
		hreq.ContentLength = int64(len(body))
		hreq.Body = io.NopCloser(bytes.NewReader(body))
		// The transport replays the body when it retries on a connection the
		// server closed while idle.
		hreq.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	}
	hresp, err := c.http.Do(hreq)
	if err != nil {
		return response{}, storecommon.Errf(storecommon.CodeConnectionReset, 0,
			"sdk: %s %s: %v", req.method, req.path, err)
	}
	defer hresp.Body.Close()
	// The body is read once into a buffer of its declared size; one of
	// undeclared length (chunked) grows as it arrives. A HEAD response
	// declares the length of the body it does not carry.
	var data []byte
	switch {
	case req.method == http.MethodHead:
	case hresp.ContentLength >= 0:
		data = make([]byte, hresp.ContentLength)
		_, err = io.ReadFull(hresp.Body, data)
	default:
		data, err = io.ReadAll(hresp.Body)
	}
	if err != nil {
		return response{}, storecommon.Errf(storecommon.CodeConnectionReset, 0,
			"sdk: reading %s %s response: %v", req.method, req.path, err)
	}
	return response{status: hresp.StatusCode, headers: hresp.Header, body: data}, nil
}

// decodeError converts a REST error response into a *storecommon.Error.
func decodeError(resp response) error {
	var xe struct {
		Code    string `xml:"Code"`
		Message string `xml:"Message"`
	}
	code := resp.headers.Get(hErrorCode)
	msg := ""
	if err := xml.Unmarshal(resp.body, &xe); err == nil {
		if code == "" {
			code = xe.Code
		}
		msg = xe.Message
	}
	if code == "" {
		code = string(storecommon.CodeInternalError)
	}
	if msg == "" {
		msg = strings.TrimSpace(string(resp.body))
	}
	return storecommon.Errf(storecommon.Code(code), resp.status, "%s", msg)
}

func esc(s string) string { return url.PathEscape(s) }

// appendEsc appends s to dst escaped as esc escapes it; inKey first
// doubles each single quote, OData's escape inside a quoted key.
func appendEsc(dst []byte, s string, inKey bool) []byte {
	const upperHex = "0123456789ABCDEF"
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || strings.IndexByte("-_.~$&+:=@", c) >= 0:
			dst = append(dst, c)
		case c == '\'' && inKey:
			dst = append(dst, "%27%27"...)
		default:
			dst = append(dst, '%', upperHex[c>>4], upperHex[c&0xf])
		}
	}
	return dst
}
