package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Layer names of the spans the harness records, outermost first. They are
// the repository's packages as one operation crosses them; "transport" is
// net/http and the loopback socket between sdk and rest.
const (
	layerLoadgen   = "loadgen"
	layerSDK       = "sdk"
	layerTransport = "transport"
	layerREST      = "rest"
	layerCore      = "core"
	layerScenario  = "scenario"
)

// span is one interval at a layer boundary. The spans of one operation
// share Op; Parent is the index, in the same buffer, of the span that
// caused this one (-1 for the operation's root).
type span struct {
	Op     int64
	Parent int32
	Layer  string
	Name   string
	Start  int64 // ns on the run's monotonic clock
	End    int64
}

// clock is the monotonic time base of a run.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// spanBuf is one closed-loop client's span buffer. Exactly one goroutine
// appends to it; the server-side handler wrapper only fills the Start and
// End of a slot the client reserved before sending, so the slice is sized
// before a repetition and never grows during one.
type spanBuf struct {
	clk    clock
	worker int
	spans  []span
	on     bool  // tracing enabled for the current repetition
	op     int64 // operation in flight
	cur    int32 // span new children hang under
}

func newSpanBuf(clk clock, worker, capacity int) *spanBuf {
	return &spanBuf{clk: clk, worker: worker, spans: make([]span, 0, capacity)}
}

// open starts a span under parent at time at and returns its index. The
// server-side handler span is opened with at 0: its Start and End are
// filled by the handler wrapper.
func (b *spanBuf) open(parent int32, layer, name string, at int64) int32 {
	if len(b.spans) == cap(b.spans) {
		panic("bench: span buffer too small for the repetition")
	}
	b.spans = append(b.spans, span{Op: b.op, Parent: parent, Layer: layer, Name: name, Start: at})
	return int32(len(b.spans) - 1)
}

func (b *spanBuf) close(i int32, at int64) { b.spans[i].End = at }

// The four calls below bracket one operation of a live workload and the
// SDK requests it makes. They do nothing on a nil buffer, which is what a
// worker holds in an untraced repetition.

// beginOp opens the root span of operation op and returns it.
func (b *spanBuf) beginOp(op int64, name string, at int64) int32 {
	if b == nil {
		return 0
	}
	b.op = op
	return b.open(-1, layerLoadgen, name, at)
}

// beginCall opens the span of one SDK request under root; the transport
// wrapper hangs its spans beneath it.
func (b *spanBuf) beginCall(root int32, name string, at int64) {
	if b != nil {
		b.cur = b.open(root, layerSDK, name, at)
	}
}

func (b *spanBuf) endCall(at int64) {
	if b != nil {
		b.close(b.cur, at)
	}
}

func (b *spanBuf) endOp(root int32, at int64) {
	if b != nil {
		b.close(root, at)
	}
}

// reset switches recording on or off for the next repetition. A traced
// repetition starts from an empty buffer; an untraced one leaves the last
// traced repetition's spans in place for the span file.
func (b *spanBuf) reset(on bool) {
	b.on = on
	if on {
		b.spans = b.spans[:0]
	}
}

// tracer holds the clock of a run and, when the run is traced, the span
// buffers its workload set up.
type tracer struct {
	clk  clock
	on   bool
	bufs []*spanBuf
}

// tracedTransport is the http.RoundTripper handed to sdk.New in a traced
// run: it records the transport span (request written until response body
// closed), reserves the server-side handler span beneath it and stamps the
// slot into x-bench-op so the handler wrapper can fill it.
type tracedTransport struct {
	next http.RoundTripper
	buf  *spanBuf
}

const benchOpHeader = "x-bench-op"

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	b := t.buf
	if !b.on {
		return t.next.RoundTrip(req)
	}
	ti := b.open(b.cur, layerTransport, req.Method, b.clk.now())
	hi := b.open(ti, layerREST, req.Method, 0)
	req.Header.Set(benchOpHeader, strconv.Itoa(b.worker)+"."+strconv.Itoa(int(hi)))
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		b.close(ti, b.clk.now())
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, buf: b, idx: ti}
	return resp, nil
}

// spanBody ends the transport span when the SDK closes the response body.
type spanBody struct {
	io.ReadCloser
	buf *spanBuf
	idx int32
}

func (s *spanBody) Close() error {
	err := s.ReadCloser.Close()
	s.buf.close(s.idx, s.buf.clk.now())
	return err
}

// tracedHandler wraps rest.Server: a request carrying x-bench-op gets its
// handler time written into the slot the client reserved.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tag := r.Header.Get(benchOpHeader)
	if tag == "" {
		h.next.ServeHTTP(w, r)
		return
	}
	ws, is, _ := strings.Cut(tag, ".")
	wi, err1 := strconv.Atoi(ws)
	idx, err2 := strconv.Atoi(is)
	if err1 != nil || err2 != nil || wi >= len(h.tr.bufs) {
		h.next.ServeHTTP(w, r)
		return
	}
	// The client is blocked on this request, so its buffer is not
	// appended to while the slot is written; atomics order the stores
	// before the aggregator's loads.
	s := &h.tr.bufs[wi].spans[:cap(h.tr.bufs[wi].spans)][idx]
	atomic.StoreInt64(&s.Start, h.tr.clk.now())
	h.next.ServeHTTP(w, r)
	atomic.StoreInt64(&s.End, h.tr.clk.now())
}

// settle waits until every reserved handler slot has its End: a handler
// may still be returning when the client has already read the last byte.
func (b *spanBuf) settle() error {
	deadline := time.Now().Add(2 * time.Second)
	for i := range b.spans {
		s := &b.spans[i]
		for s.Layer == layerREST && atomic.LoadInt64(&s.End) == 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("span %d.%d: handler never finished", b.worker, i)
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
	return nil
}

// selfTimes returns, for each span, its duration minus the part of that
// interval its child spans cover (children clipped to the parent, overlaps
// between children counted once). It relies on the order the harness
// records in: a span comes after its parent, and the children of one
// parent come in the order they started.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	edge := make([]int64, len(spans)) // up to where a span's children have covered it
	for i, s := range spans {
		self[i], edge[i] = s.End-s.Start, s.Start
		p := s.Parent
		if p < 0 {
			continue
		}
		lo, hi := s.Start, s.End
		if lo < edge[p] {
			lo = edge[p]
		}
		if hi > spans[p].End {
			hi = spans[p].End
		}
		if hi > lo {
			self[p] -= hi - lo
			edge[p] = hi
		}
	}
	return self
}

// layerTotals accumulates, per layer, the self time of the spans of a
// workload's primary phase over the traced repetitions.
type layerTotals struct {
	count map[string]int64 // spans per layer
	self  map[string]int64 // ns
}

func newLayerTotals() *layerTotals {
	return &layerTotals{count: map[string]int64{}, self: map[string]int64{}}
}

// add accumulates spans[lo:hi] of one buffer: the spans of one phase,
// whole operations only.
func (lt *layerTotals) add(spans []span, lo, hi int) {
	self := selfTimes(spans)
	for i := lo; i < hi; i++ {
		lt.count[spans[i].Layer]++
		lt.self[spans[i].Layer] += self[i]
	}
}

// selfUS is the mean self time of one span of a layer, in µs. Means,
// unlike medians, add up: where an operation is one request, the layers'
// self times sum to the mean client-observed operation time.
func (lt *layerTotals) selfUS(layer string) float64 {
	if lt.count[layer] == 0 {
		return 0
	}
	return us(lt.self[layer]) / float64(lt.count[layer])
}

// writeSpans writes the buffers as JSONL, one span per line with its self
// time, so that per operation the self times sum to the root span.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for _, b := range bufs {
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			parent := ""
			if s.Parent >= 0 {
				parent = fmt.Sprintf("%d.%d", b.worker, s.Parent)
			}
			fmt.Fprintf(w, `{"op":%d,"id":"%d.%d","parent":%q,"layer":%q,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
				s.Op, b.worker, i, parent, s.Layer, s.Name, s.Start, s.End, self[i])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
