package cloud

import (
	"testing"
	"time"

	"azurebench/internal/faults"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
	"azurebench/internal/trace"
)

func TestTraceRecordsOperations(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, model.Default())
	log := trace.New(1000)
	c.SetTrace(log)
	cl := c.NewClient("vm0", model.Small)
	env.Go("main", func(p *sim.Proc) {
		if err := cl.CreateContainer(p, "bench"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.UploadBlockBlob(p, "bench", "b", payload.Zero(1024)); err != nil {
			t.Error(err)
			return
		}
		if _, err := cl.Download(p, "bench", "b"); err != nil {
			t.Error(err)
			return
		}
		// A failing op must be recorded with its error code.
		if _, err := cl.Download(p, "bench", "missing"); err == nil {
			t.Error("expected not-found")
		}
	})
	env.Run()
	ops := log.Ops()
	if len(ops) != 4 {
		t.Fatalf("recorded %d ops, want 4", len(ops))
	}
	names := map[string]int{}
	for _, op := range ops {
		names[op.Name]++
		if op.Service != "blob" || op.Client != "vm0" {
			t.Fatalf("op = %+v", op)
		}
		if op.Duration <= 0 {
			t.Fatalf("op without duration: %+v", op)
		}
	}
	if names["CreateContainer"] != 1 || names["UploadBlockBlob"] != 1 || names["Download"] != 2 {
		t.Fatalf("names = %v", names)
	}
	// The failed download carries its error code.
	var sawErr bool
	for _, op := range ops {
		if op.Err == "BlobNotFound" {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("failed op not recorded with error code")
	}
	// Bytes: the upload moved >= 1024 bytes up, the download >= 1024 down.
	rows := log.Rows()
	for _, r := range rows {
		if r.Name == "UploadBlockBlob" && r.Bytes < 1024 {
			t.Fatalf("upload bytes = %d", r.Bytes)
		}
	}
	_ = time.Second
}

func TestTraceDetached(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, model.Default())
	if c.traceLog != nil {
		t.Fatal("trace attached by default")
	}
	cl := c.NewClient("vm0", model.Small)
	env.Go("main", func(p *sim.Proc) {
		if err := cl.CreateContainer(p, "bench"); err != nil {
			t.Error(err)
		}
	})
	env.Run() // must not panic with tracing off
}

// sumSpans totals an op's stage attribution.
func sumSpans(op trace.Op) time.Duration {
	var total time.Duration
	for _, sp := range op.Spans {
		total += sp.Dur
	}
	return total
}

// checkSpans asserts the span invariant on every recorded op: stages are
// known, non-negative, and sum exactly to the op's duration.
func checkSpans(t *testing.T, log *trace.Log) {
	t.Helper()
	known := map[string]bool{}
	for _, st := range trace.StageOrder() {
		known[st] = true
	}
	for _, op := range log.Ops() {
		if len(op.Spans) == 0 {
			t.Fatalf("op without spans: %+v", op)
		}
		for _, sp := range op.Spans {
			if !known[sp.Stage] {
				t.Fatalf("unknown stage %q in %+v", sp.Stage, op)
			}
			if sp.Dur < 0 {
				t.Fatalf("negative span in %+v", op)
			}
		}
		if got := sumSpans(op); got != op.Duration {
			t.Fatalf("%s/%s spans sum to %v, duration %v (spans %v)",
				op.Service, op.Name, got, op.Duration, op.Spans)
		}
	}
}

// TestSpansSumToDuration runs the mixed blob/queue/table workload with
// tracing attached and verifies exact per-stage attribution on every op.
func TestSpansSumToDuration(t *testing.T) {
	log := trace.New(10000)
	miniWorkload(t, true, func(c *Cloud) { c.SetTrace(log) })
	if len(log.Ops()) == 0 {
		t.Fatal("no ops recorded")
	}
	checkSpans(t, log)
	// Mutations must attribute a replication tail; reads must not.
	var putRepl, getRepl time.Duration
	for _, op := range log.Ops() {
		switch op.Name {
		case "PutMessage":
			putRepl += op.SpanDur(trace.StageReplicate)
		case "Download":
			getRepl += op.SpanDur(trace.StageReplicate)
		}
	}
	if putRepl == 0 {
		t.Fatal("PutMessage recorded no replicate span")
	}
	if getRepl != 0 {
		t.Fatalf("Download recorded a replicate span (%v)", getRepl)
	}
}

// TestSpansUnderThrottling drives a hot queue past its scalability target
// so ops block in the server queue, get throttled, and retry — the
// contended stages must appear and the sums must still be exact.
func TestSpansUnderThrottling(t *testing.T) {
	env := sim.NewEnv(3)
	c := New(env, model.Default())
	log := trace.New(100000)
	c.SetTrace(log)
	setup := c.NewClient("setup", model.Small)
	env.Go("setup", func(p *sim.Proc) {
		if _, err := setup.CreateQueueIfNotExists(p, "hot"); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	for k := 0; k < 32; k++ {
		cl := c.NewClient("vm", model.Small)
		env.Go("w", func(p *sim.Proc) {
			for i := 0; i < 20; i++ {
				if _, err := cl.PutMessage(p, "hot", payload.Zero(1024)); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	env.Run()
	checkSpans(t, log)
	var backoff, queueWait, throttled time.Duration
	for _, op := range log.Ops() {
		backoff += op.SpanDur(trace.StageRetryBackoff)
		queueWait += op.SpanDur(trace.StageQueueWait)
		throttled += op.SpanDur(trace.StageThrottle)
	}
	if backoff == 0 {
		t.Error("no retry-backoff time attributed under throttling")
	}
	if queueWait == 0 {
		t.Error("no queue-wait time attributed under contention")
	}
	if throttled == 0 {
		t.Error("no throttle time attributed on rejected attempts")
	}
}

// TestSpansUnderFaults verifies the invariant holds on the fault paths
// too: timed-out and reset ops still account every virtual nanosecond.
func TestSpansUnderFaults(t *testing.T) {
	log := trace.New(10000)
	miniWorkload(t, false, func(c *Cloud) {
		c.SetTrace(log)
		c.SetFaults(faults.NewInjector(faults.Plan{
			Seed: 99,
			Rules: []faults.Rule{
				{Kind: faults.Timeout, Rate: 0.15},
				{Kind: faults.Internal, Rate: 0.1},
			},
			Timeout: 2 * time.Second,
		}))
	})
	checkSpans(t, log)
	var faulted []trace.Op
	for _, op := range log.Ops() {
		if op.Fault != "" {
			faulted = append(faulted, op)
		}
	}
	if len(faulted) == 0 {
		t.Fatal("no faults injected; fault-path guard is vacuous")
	}
	var faultWait time.Duration
	for _, op := range faulted {
		faultWait += op.SpanDur(trace.StageFaultWait)
	}
	if faultWait == 0 {
		t.Error("no fault-wait time attributed to timed-out ops")
	}
}

// TestTraceAttachNoDrift is the zero-cost guard: attaching the tracer
// must not move the virtual clock or the cloud's counters by one tick.
func TestTraceAttachNoDrift(t *testing.T) {
	bareNow, bareStats := miniWorkload(t, true, nil)
	traceNow, traceStats := miniWorkload(t, true, func(c *Cloud) {
		c.SetTrace(trace.New(10000))
	})
	if bareNow != traceNow {
		t.Errorf("virtual clock drifted: bare=%v traced=%v", bareNow, traceNow)
	}
	if bareStats != traceStats {
		t.Errorf("stats drifted:\nbare   = %+v\ntraced = %+v", bareStats, traceStats)
	}
}

// TestSharedClientRetryChain shares one traced client between two
// processes. A's second PutMessage is throttled by a 1 op/s queue limiter
// and retried after the paper's 1 s backoff; B issues a BlobProps in the
// middle of that backoff. The retry chain belongs to A's request: its
// retry is parented under the throttled attempt, starts where that attempt
// ended and carries the backoff, and B's op roots a trace of its own.
func TestSharedClientRetryChain(t *testing.T) {
	env := sim.NewEnv(1)
	prm := model.Default()
	prm.QueueOpsPerSec, prm.QueueBurst = 1, 1
	c := New(env, prm)
	setup := c.NewClient("setup", model.Small)
	env.Go("setup", func(p *sim.Proc) {
		if err := setup.CreateQueue(p, "shared"); err != nil {
			t.Error(err)
		}
		if err := setup.CreateContainer(p, "media"); err != nil {
			t.Error(err)
		}
		if err := setup.UploadBlockBlob(p, "media", "b", payload.Zero(1024)); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	// Let the queue's bucket refill, then trace the shared client alone.
	env.Go("idle", func(p *sim.Proc) { p.Sleep(5 * time.Second) })
	env.Run()
	log := trace.New(100)
	c.SetTrace(log)
	cl := c.NewClient("shared", model.Small)
	env.Go("A", func(p *sim.Proc) {
		for i := 0; i < 2; i++ {
			if _, err := cl.PutMessage(p, "shared", payload.Zero(64)); err != nil {
				t.Errorf("A's put %d: %v", i, err)
			}
		}
	})
	env.Go("B", func(p *sim.Proc) {
		p.Sleep(500 * time.Millisecond)
		if _, err := cl.BlobProps(p, "media", "b"); err != nil {
			t.Errorf("B's props: %v", err)
		}
	})
	env.Run()

	var puts []trace.Op
	var props trace.Op
	for _, op := range log.Ops() {
		switch op.Name {
		case "PutMessage":
			puts = append(puts, op)
		case "BlobProps":
			props = op
		}
	}
	if len(puts) != 3 || puts[1].Err != "ServerBusy" || puts[2].Err != "" {
		t.Fatalf("A's puts = %+v, want served, throttled, retried", puts)
	}
	prev, retried := puts[1], puts[2]
	if retried.ParentID != prev.SpanID || retried.TraceID != prev.TraceID {
		t.Errorf("retry (trace %s, parent %s) is not a child of the throttled attempt (trace %s, span %s)",
			retried.TraceID, retried.ParentID, prev.TraceID, prev.SpanID)
	}
	if end := prev.Start + prev.Duration; retried.Start != end {
		t.Errorf("retry starts at %v, want %v where the throttled attempt ended", retried.Start, end)
	}
	if got := retried.SpanDur(trace.StageRetryBackoff); got != prm.RetryBackoff {
		t.Errorf("retry carries %v of retry-backoff, want %v", got, prm.RetryBackoff)
	}
	if props.ParentID != "" || props.TraceID == prev.TraceID || props.SpanDur(trace.StageRetryBackoff) != 0 {
		t.Errorf("B's BlobProps (trace %s, parent %q, backoff %v) is not a root of its own trace",
			props.TraceID, props.ParentID, props.SpanDur(trace.StageRetryBackoff))
	}
	checkSpans(t, log)
}
