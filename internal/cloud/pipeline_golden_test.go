package cloud

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"azurebench/internal/faults"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/trace"
)

var updatePipeline = flag.Bool("update-pipeline", false,
	"rewrite testdata/pipeline.golden (only ever on the commit the golden is meant to pin)")

// pipelineRun is the scripted run behind TestPipelineGolden: every shape
// of request do() has — clean point ops on all three services, a 64 KiB
// blob both ways, each injected fault kind (a reset on a read and on a
// mutation), a throttled burst, a contended table server and a contended
// NIC — with tracing on. stops are virtual instants at which the whole
// simulation state (kernel + cloud) is saved on the way.
func pipelineRun(t *testing.T, stops []time.Duration) (*trace.Log, []string) {
	t.Helper()
	env := sim.NewEnv(7)
	prm := model.Default()
	prm.QueueOpsPerSec = 5
	prm.QueueBurst = 3
	c := New(env, prm)
	log := trace.New(1000)
	c.SetTrace(log)
	c.SetFaults(faults.NewInjector(faults.Plan{
		Seed:    7,
		Timeout: 2 * time.Second,
		Rules: []faults.Rule{
			{Service: "queue", Op: "PeekMessage", Kind: faults.Timeout, Rate: 1},
			{Service: "blob", Op: "BlobProps", Kind: faults.Internal, Rate: 1},
			{Service: "blob", Op: "DownloadRange", Kind: faults.Reset, Rate: 1},
			{Service: "table", Op: "InsertEntity", Kind: faults.Reset, Rate: 1},
		},
		Outages: []faults.Window{
			{Service: "queue", Station: "queue:outq", Start: 20 * time.Second, Duration: time.Second},
		},
	}))

	ent := func(rk string) *tablestore.Entity {
		return &tablestore.Entity{PartitionKey: "pk", RowKey: rk, Props: map[string]tablestore.Value{
			"Data": tablestore.Binary(payload.Zero(storecommon.KB)),
		}}
	}
	// The engines are seeded directly: InsertEntity is the op the plan
	// resets, and set-up requests would only lengthen the golden.
	for _, err := range []error{
		c.Table.CreateTable("tbl"),
		c.Queue.CreateQueue("jobs"),
		c.Queue.CreateQueue("outq"),
		c.Blob.CreateContainer("ctn"),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Table.Insert("tbl", ent("row")); err != nil {
		t.Fatal(err)
	}

	vm0 := c.NewClient("vm0", model.Small)
	vm1 := c.NewClient("vm1", model.Small)
	// One attempt each: the golden records every exit as it was sent.
	vm0.SetRetryPolicy(retry.Policy{})
	vm1.SetRetryPolicy(retry.Policy{})
	at := func(p *sim.Proc, when time.Duration) { p.Sleep(when - p.Now()) }
	env.Go("main", func(p *sim.Proc) {
		cl := vm0
		// Clean point ops, one second apart so the tightened queue limiter
		// admits them.
		cl.GetEntity(p, "tbl", "pk", "row")
		cl.GetEntity(p, "tbl", "pk", "missing")
		cl.UpdateEntity(p, "tbl", ent("row"), storecommon.ETagAny)
		at(p, 1*time.Second)
		cl.PutMessage(p, "jobs", payload.Zero(4*storecommon.KB))
		at(p, 2*time.Second)
		msg, _, _ := cl.GetMessage(p, "jobs", time.Minute)
		at(p, 3*time.Second)
		cl.DeleteMessage(p, "jobs", msg.ID, msg.PopReceipt)
		at(p, 4*time.Second)
		cl.GetMessage(p, "jobs", time.Minute) // empty queue

		at(p, 5*time.Second)
		cl.UploadBlockBlob(p, "ctn", "b", payload.Zero(64*storecommon.KB))
		at(p, 6*time.Second)
		cl.Download(p, "ctn", "b")

		at(p, 7*time.Second)
		cl.PeekMessage(p, "jobs")                             // Timeout
		cl.BlobProps(p, "ctn", "b")                           // Internal
		cl.DownloadRange(p, "ctn", "b", 0, 32*storecommon.KB) // Reset on a read
		cl.InsertEntity(p, "tbl", ent("new"))                 // Reset on a mutation
		at(p, 20*time.Second+time.Millisecond)
		cl.PutMessage(p, "outq", payload.Zero(storecommon.KB)) // Outage
		at(p, 22*time.Second)
		for i := 0; i < 5; i++ { // Throttle: the bucket holds 3
			cl.GetMessageCount(p, "jobs")
		}

		// Contention: vm1 and a second process on vm0's NIC start at the
		// same instant as this one.
		at(p, 30*time.Second)
		cl.GetEntity(p, "tbl", "pk", "row")
	})
	env.GoAt(30*time.Second, "rival", func(p *sim.Proc) {
		vm1.GetEntity(p, "tbl", "pk", "row")
		vm1.UpdateEntity(p, "tbl", ent("row"), storecommon.ETagAny)
	})
	env.GoAt(30*time.Second, "sibling", func(p *sim.Proc) {
		vm0.UploadBlockBlob(p, "ctn", "c", payload.Zero(16*storecommon.KB))
		vm0.Download(p, "ctn", "c")
	})

	var saves []string
	save := func() string {
		reg := &snap.Registry{}
		reg.Register(env)
		c.RegisterSnapshot(reg, "")
		f := &snap.File{}
		reg.SaveAll(f)
		b := f.Encode()
		st := c.Stats()
		return fmt.Sprintf("save at=%v events=%d len=%d sha256=%x ops=%d in=%d out=%d",
			env.Now(), env.Events(), len(b), sha256.Sum256(b), st.Ops, st.BytesIn, st.BytesOut)
	}
	for _, s := range stops {
		env.RunUntil(s)
		saves = append(saves, save())
	}
	env.Run()
	saves = append(saves, save())
	return log, saves
}

// TestPipelineGolden pins what the digest goldens cannot see: every
// request's stage spans, and the whole saved state at three instants
// inside a request — the request body has crossed the NIC but not yet
// reached the front door; the server is half-way through its occupancy;
// the response is half-way across the NIC. testdata/pipeline.golden was
// generated at 9ba2002, the parent of the PR that moved do()'s sleeps
// into kernel-run programs (copy this file there, go test ./internal/cloud
// -run TestPipelineGolden -update-pipeline), and a change that claims to
// preserve behaviour leaves it alone.
func TestPipelineGolden(t *testing.T) {
	// A first pass finds the two 64 KiB blob requests; the instants are cut
	// from their spans.
	log, _ := pipelineRun(t, nil)
	var put, get trace.Op
	for _, op := range log.Ops() {
		switch {
		case op.Name == "UploadBlockBlob" && put.Name == "":
			put = op
		case op.Name == "Download" && get.Name == "":
			get = op
		}
	}
	rtt := model.Default().RTT
	afterNicIn := put.Start + put.SpanDur(trace.StageNicIn) - rtt/4
	midOccupancy := put.Start + put.SpanDur(trace.StageNicIn) + put.SpanDur(trace.StageQueueWait) +
		put.SpanDur(trace.StageServer)/2
	beforeNicOut := get.Start + get.Duration - (get.SpanDur(trace.StageNicOut)-rtt/2)/2
	if !(put.Start < afterNicIn && afterNicIn < midOccupancy && midOccupancy < put.Start+put.Duration &&
		get.Start < beforeNicOut && beforeNicOut < get.Start+get.Duration) {
		t.Fatalf("instants not inside their requests: %v %v %v (put %+v, get %+v)",
			afterNicIn, midOccupancy, beforeNicOut, put, get)
	}

	log, saves := pipelineRun(t, []time.Duration{afterNicIn, midOccupancy, beforeNicOut})
	var b strings.Builder
	for _, op := range log.Ops() {
		fmt.Fprintf(&b, "%s %s/%s start=%v dur=%v bytes=%d err=%q fault=%q trace=%s span=%s parent=%q:",
			op.Client, op.Service, op.Name, op.Start, op.Duration, op.Bytes, op.Err, op.Fault,
			op.TraceID, op.SpanID, op.ParentID)
		for _, sp := range op.Spans {
			fmt.Fprintf(&b, " %s=%v", sp.Stage, sp.Dur)
		}
		b.WriteByte('\n')
	}
	for _, s := range saves {
		b.WriteString(s + "\n")
	}
	got := b.String()

	const golden = "testdata/pipeline.golden"
	if *updatePipeline {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("pipeline drifted from %s\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
