package rest

import (
	"net/http"
	"time"

	"azurebench/internal/trace"
	"azurebench/internal/vclock"
)

// reqTrace accumulates per-request trace state while a traced request
// moves through the handler chain: the engine occupancy cut out of the
// total handler time, so the exported server-side op separates "engine"
// from "handler overhead" the way the sim separates server occupancy from
// the storage pipeline. Only the request's own goroutine touches it.
type reqTrace struct {
	engine time.Duration
}

// engineStart marks the start of engine work on the request's trace and
// returns the func to call when the engine returns. With tracing off it
// returns a no-op, so handlers can instrument unconditionally.
func engineStart(r *request) func() {
	rt := r.trace
	if rt == nil {
		return func() {}
	}
	t0 := time.Now()
	return func() {
		rt.engine += time.Since(t0)
	}
}

// engineDo runs one engine call under the request's engine-occupancy
// span and returns its error.
func engineDo(r *request, fn func() error) error {
	done := engineStart(r)
	err := fn()
	done()
	return err
}

// SetTrace attaches an operation log to the emulator: every request is
// recorded as a server-side trace.Op whose parent is the client span from
// the request's W3C traceparent header (when present), with engine
// occupancy split out as a "server" span. seed seeds the span-ID
// generator (deterministic, no global rand). Pass l=nil to detach.
func (s *Server) SetTrace(l *trace.Log, seed string) {
	s.traceLog = l
	if l != nil && s.ids == nil {
		if seed == "" {
			seed = "rest"
		}
		s.ids = trace.NewIDGen("rest/" + seed)
	}
}

// Trace returns the attached operation log (nil when tracing is off).
func (s *Server) Trace() *trace.Log { return s.traceLog }

// recordTrace emits the server-side op for one completed request.
func (s *Server) recordTrace(r *request, sw *statusWriter, startAt time.Time, elapsed time.Duration) {
	op := trace.Op{
		Start:    startAt.Sub(vclock.Epoch),
		Duration: elapsed,
		Client:   "rest",
		Service:  trace.ServiceOf(r.URL.Path),
		Name:     r.Header.Get("x-bench-op"),
		Bytes:    r.ContentLength + sw.written,
		SpanID:   s.ids.SpanID(),
	}
	if op.Bytes < 0 {
		op.Bytes = 0 // unknown ContentLength reports -1
	}
	if op.Name == "" {
		op.Name = endpointNames[r.slot]
	}
	if tid, sid, ok := trace.ParseTraceparent(r.Header.Get("traceparent")); ok {
		op.TraceID, op.ParentID = tid, sid
	} else {
		op.TraceID = s.ids.TraceID()
	}
	if sw.status >= 400 {
		op.Err = sw.Header().Get("x-ms-error-code")
	}
	engine := r.trace.engine
	if engine > elapsed {
		engine = elapsed
	}
	switch {
	case engine == 0 && sw.status == http.StatusServiceUnavailable:
		// Throttled at the front door: the whole request is rejection path.
		op.Spans = []trace.Span{{Stage: trace.StageThrottle, Dur: elapsed}}
	case engine > 0:
		op.Spans = []trace.Span{{Stage: trace.StageServer, Dur: engine}}
		if rest := elapsed - engine; rest > 0 {
			op.Spans = append(op.Spans, trace.Span{Stage: trace.StagePipeline, Dur: rest})
		}
	default:
		op.Spans = []trace.Span{{Stage: trace.StagePipeline, Dur: elapsed}}
	}
	s.traceLog.Record(op)
}
