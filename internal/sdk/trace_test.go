package sdk

import (
	"testing"
	"time"

	"azurebench/internal/rest"
	"azurebench/internal/trace"
	"azurebench/internal/tracegraph"
)

// tracedStack spins up an emulator and client with tracing attached on
// both ends, sharing one log so the merged trace forms causal trees.
func tracedStack(t *testing.T, opts rest.Options) (*Client, *rest.Server, *trace.Log) {
	t.Helper()
	l := trace.New(0)
	c, srv := newStack(t, opts)
	c.SetTrace(l, "client", "test")
	srv.SetTrace(l, "test")
	return c, srv, l
}

func TestTraceparentPropagatesEndToEnd(t *testing.T) {
	c, _, l := tracedStack(t, rest.Options{})
	blob := c.Blob()
	if err := blob.CreateContainer("traced"); err != nil {
		t.Fatal(err)
	}
	if err := blob.Upload("traced", "b.bin", []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if _, err := blob.Download("traced", "b.bin"); err != nil {
		t.Fatal(err)
	}

	tr := tracegraph.Trace{Ops: l.Ops()}
	rep := tr.Verify()
	if !rep.Complete() {
		t.Fatalf("causal trees incomplete: %+v", rep)
	}
	var client, server int
	serverParent := map[string]bool{}
	for _, op := range tr.Ops {
		switch op.Client {
		case "client":
			client++
			if op.SpanID == "" || op.TraceID == "" {
				t.Fatalf("client op missing identity: %+v", op)
			}
			serverParent[op.SpanID] = true
		case "rest":
			server++
		}
	}
	if client == 0 || server == 0 {
		t.Fatalf("client ops = %d, server ops = %d; want both > 0", client, server)
	}
	if client != server {
		t.Fatalf("client ops = %d, server ops = %d; want 1:1 on a fault-free run", client, server)
	}
	for _, op := range tr.Ops {
		if op.Client != "rest" {
			continue
		}
		if !serverParent[op.ParentID] {
			t.Fatalf("server op %s/%s parent %q is not a client span", op.Service, op.Name, op.ParentID)
		}
		if op.Name != "CreateContainer" && op.Name != "PutBlob" && op.Name != "Upload" && op.Name != "Download" && op.Name != "GetBlob" {
			// The op vocabulary is shared via x-bench-op; whatever the sdk
			// called it, the server must echo the same name.
			found := false
			for _, cop := range tr.Ops {
				if cop.Client == "client" && cop.SpanID == op.ParentID && cop.Name == op.Name {
					found = true
				}
			}
			if !found {
				t.Fatalf("server op name %q does not match its client op", op.Name)
			}
		}
	}
}

func TestTraceRetryChainsUnderThrottle(t *testing.T) {
	// An aggressive throttle forces 503s; the sdk's retry attempts must
	// chain parent → child within one trace.
	c, _, l := tracedStack(t, rest.Options{
		Throttle:         true,
		AccountOpsPerSec: 2,
	})
	blob := c.Blob()
	var lastErr error
	for i := 0; i < 12; i++ {
		if err := blob.CreateContainer("spin"); err != nil {
			lastErr = err
		}
	}
	_ = lastErr // throttling may or may not exhaust retries; the trace is the point

	tr := tracegraph.Trace{Ops: l.Ops()}
	if !tr.Verify().Complete() {
		t.Fatalf("causal trees incomplete: %+v", tr.Verify())
	}
	var throttled, chained int
	for _, op := range tr.Ops {
		if op.Client == "rest" && op.Err == "ServerBusy" {
			throttled++
			if d := op.SpanDur(trace.StageThrottle); d <= 0 {
				t.Fatalf("throttled server op missing throttle span: %+v", op)
			}
		}
		if op.Client == "client" && op.ParentID != "" {
			chained++
			if d := op.SpanDur(trace.StageRetryBackoff); d <= 0 {
				t.Fatalf("retry attempt missing backoff span: %+v", op)
			}
		}
	}
	if throttled == 0 {
		t.Fatal("throttle never fired; raise the pressure")
	}
	if chained == 0 {
		t.Fatal("no retry attempt chained to its predecessor")
	}
}

func TestTraceDetachedRecordsNothing(t *testing.T) {
	c, srv := newStack(t, rest.Options{})
	if c.Trace() != nil || srv.Trace() != nil {
		t.Fatal("tracing should be off by default")
	}
	if err := c.Blob().CreateContainer("plain"); err != nil {
		t.Fatal(err)
	}
	// Attaching with an empty seed detaches again.
	l := trace.New(0)
	c.SetTrace(l, "x", "s")
	c.SetTrace(nil, "", "")
	if err := c.Blob().CreateContainer("plain2"); err != nil {
		t.Fatal(err)
	}
	if len(l.Ops()) != 0 {
		t.Fatalf("detached client recorded %d ops", len(l.Ops()))
	}
}

// TestLiveTraceTimelineCoherent checks the live-mode timeline contract:
// client and server ops share the vclock.Epoch-anchored timeline, with
// the server op inside its client op's window (within scheduling slack).
func TestLiveTraceTimelineCoherent(t *testing.T) {
	c, _, l := tracedStack(t, rest.Options{})
	if err := c.Blob().CreateContainer("timeline"); err != nil {
		t.Fatal(err)
	}
	ops := l.Ops()
	if len(ops) != 2 {
		t.Fatalf("ops = %d, want 2", len(ops))
	}
	var cl, sv trace.Op
	for _, op := range ops {
		if op.Client == "client" {
			cl = op
		} else {
			sv = op
		}
	}
	const slack = 2 * time.Second // wall-clock scheduling noise bound
	if sv.Start < cl.Start-slack || sv.Start > cl.Start+cl.Duration+slack {
		t.Fatalf("server op at %v outside client window [%v, %v]",
			sv.Start, cl.Start, cl.Start+cl.Duration)
	}
}
