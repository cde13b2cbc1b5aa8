package scenario_test

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"azurebench/internal/blobstore"
	"azurebench/internal/cloud"
	"azurebench/internal/core"
	"azurebench/internal/liverun"
	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
	"azurebench/internal/rest"
	"azurebench/internal/retry"
	"azurebench/internal/scenario"
	"azurebench/internal/sdk"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/trace"
	"azurebench/internal/vclock"
)

// doorsSpec declares one object per service; its single phase exists to
// carry the targets (the script below picks ops and keys itself).
const doorsSpec = `
name: doors
driver: workload
setup:
  tables:
    - name: people
      keys: 4
  queues:
    - name: jobs
  containers:
    - name: media
      blobs: 2
      blob_kb: 1
phases:
  - name: script
    duration: 1s
    arrival:
      kind: closed
    ops:
      blob_put: 1
      blob_get: 1
      queue_put: 1
      queue_get: 1
      queue_delete: 1
      table_get: 1
      table_insert: 1
      table_update: 1
      table_delete: 1
      table_rmw: 1
      table_scan: 1
    target:
      table: people
      queue: jobs
      container: media
`

// step is one scripted op: client 0 or 1 performs op on key, optionally
// against undeclared targets; advance > 0 instead lets time pass.
type step struct {
	client  int
	op      string
	key     int
	ghost   bool
	advance time.Duration
}

// doorsScript visits every op kind with its hit and its miss outcomes.
// Keys 0-3 (table) and 0-1 (blob) are preloaded; 7 and 9 are not.
var doorsScript = []step{
	{op: "table_get", key: 0},               // hit
	{op: "table_get", key: 7},               // NotFound
	{op: "table_update", key: 1},            // hit
	{op: "table_update", key: 7},            // NotFound
	{op: "table_rmw", key: 2},               // hit
	{op: "table_rmw", key: 7},               // NotFound
	{op: "table_delete", key: 7},            // NotFound, recreates the row
	{op: "table_get", key: 7},               // now a hit
	{op: "table_delete", key: 3},            // hit, recreates the row
	{op: "table_insert", key: 1},            // row r0
	{client: 1, op: "table_insert", key: 1}, // r0 again: conflicting insert
	{op: "table_insert", key: 1},            // row r1
	{op: "table_scan", key: 0},              // rows from the first key on
	{op: "table_scan", key: 1 << 40},        // past the last key: empty
	{op: "blob_get", key: 0},                // hit
	{op: "blob_get", key: 9},                // NotFound
	{op: "blob_put", key: 9},
	{op: "blob_get", key: 9},        // now a hit
	{op: "queue_get"},               // empty queue
	{op: "queue_delete"},            // nothing claimed, nothing to claim
	{op: "queue_put"},               // one message, so no pick is random
	{op: "queue_get"},               // client 0 claims it
	{advance: 31 * time.Second},     // the claim expires
	{client: 1, op: "queue_get"},    // client 1 re-claims it
	{op: "queue_delete"},            // client 0's receipt is stale
	{client: 1, op: "queue_delete"}, // client 1's is not
	{op: "queue_put"},
	{client: 1, op: "queue_delete"},           // claim-and-delete in one op
	{op: "queue_get"},                         // empty again
	{op: "blob_put", key: 0, ghost: true},     // ContainerNotFound is an error
	{op: "queue_put", ghost: true},            // QueueNotFound is an error
	{op: "table_insert", key: 0, ghost: true}, // TableNotFound is an error
	{op: "table_get", key: 0, ghost: true},    // ... but a miss for a read
}

// door is one front door plus white-box access to the engines behind it.
type door struct {
	name    string
	drv     *scenario.Door
	advance func(time.Duration)
	table   *tablestore.Store
	queue   *queuestore.Store
	blob    *blobstore.Store
}

func simDoor(sp *scenario.Spec) door {
	rt, dial, c := scenario.SimSubstrate(core.NewSuite(core.QuickConfig()))
	drv := scenario.NewDoor(rt, dial, sp, 2)
	return door{"sim", drv, drv.Sleep, c.Table, c.Queue, c.Blob}
}

func liveDoor(t *testing.T, sp *scenario.Spec) door {
	clock := &vclock.Manual{}
	srv := rest.NewServer(rest.Options{Clock: clock})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	st := liverun.NewStore(sdk.New(hs.URL, hs.Client(), retry.Policy{}))
	drv := scenario.NewDoor(liverun.NewRuntime(), func(string) scenario.Store { return st }, sp, 2)
	return door{"live", drv, clock.Advance, srv.Table, srv.Queue, srv.Blob}
}

// run plays the script through the door and returns one line per step
// plus the final engine contents.
func (d door) run(t *testing.T, sp *scenario.Spec) []string {
	t.Helper()
	if err := d.drv.Setup(); err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	ghost := sp.Phases[0]
	ghost.Target = scenario.Target{Table: "ghosttable", Queue: "ghostqueue", Container: "ghostcontainer"}
	var out []string
	for i, s := range doorsScript {
		if s.advance > 0 {
			d.advance(s.advance)
			out = append(out, fmt.Sprintf("step %d advance %v", i, s.advance))
			continue
		}
		ph := sp.Phases[0]
		if s.ghost {
			ph = ghost
		}
		miss, err := d.drv.Perform(s.client, ph, s.op, s.key)
		out = append(out, fmt.Sprintf("step %d c%d %s key=%d ghost=%v: miss=%v code=%q",
			i, s.client, s.op, s.key, s.ghost, miss, storecommon.CodeOf(err)))
	}
	rows, err := d.table.EntityCount("people")
	if err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	msgs, err := d.queue.ApproximateCount("jobs")
	if err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	blobs, err := d.blob.ListBlobs("media", "")
	if err != nil {
		t.Fatalf("%s: %v", d.name, err)
	}
	return append(out, fmt.Sprintf("final: %d entities, %d messages, blobs %v", rows, msgs, blobs))
}

// TestBothDoorsAgree is PAPER.md's "same observable contracts" as a test:
// one scripted op sequence through the simulated front door
// (cloud.Client in virtual time) and the live one (sdk over HTTP into
// rest) must classify every step the same way — hit, miss or the same
// error code — and leave the same contents in the engines.
func TestBothDoorsAgree(t *testing.T) {
	sp, err := scenario.Parse([]byte(doorsSpec))
	if err != nil {
		t.Fatal(err)
	}
	sim := simDoor(sp).run(t, sp)
	live := liveDoor(t, sp).run(t, sp)
	for i := range sim {
		if sim[i] != live[i] {
			t.Errorf("doors disagree:\n  sim:  %s\n  live: %s", sim[i], live[i])
		}
	}

	// The script is only a witness if it reaches the outcomes it names.
	want := map[int]string{
		0: `miss=false code=""`, 1: `miss=true code=""`, 6: `miss=true code=""`, 7: `miss=false code=""`,
		10: `miss=true code=""`, 12: `miss=false code=""`, 13: `miss=true code=""`,
		15: `miss=true code=""`, 18: `miss=true code=""`, 19: `miss=true code=""`,
		23: `miss=false code=""`, 24: `miss=true code=""`, 25: `miss=false code=""`,
		27: `miss=false code=""`, 28: `miss=true code=""`,
		29: `miss=false code="ContainerNotFound"`, 30: `miss=false code="QueueNotFound"`,
		31: `miss=false code="TableNotFound"`, 32: `miss=true code=""`,
	}
	for i, suffix := range want {
		if got := sim[i]; !strings.HasSuffix(got, suffix) {
			t.Errorf("script step outcome drifted: %s (want ...%s)", got, suffix)
		}
	}
	if got, want := sim[len(sim)-1], "final: 7 entities, 0 messages, blobs [user0000000000 user0000000001 user0000000009]"; got != want {
		t.Errorf("final contents = %q, want %q", got, want)
	}
}

// TestDoorsRetryTheThrottledCall throttles the update of a table_rmw once,
// on each door, with a one-token partition bucket that has refilled by the
// time the retry's backoff is over. A retry repeats the storage call that
// failed, not the operation around it: both doors must read the row once
// and send the update twice. The live door's SDK retries inside its
// request; so must the simulated client.
func TestDoorsRetryTheThrottledCall(t *testing.T) {
	sp, err := scenario.Parse([]byte(doorsSpec))
	if err != nil {
		t.Fatal(err)
	}

	cfg := core.QuickConfig()
	cfg.Params.PartitionOpsPerSec, cfg.Params.PartitionBurst = 20, 1
	rt, dial, c := scenario.SimSubstrate(core.NewSuite(cfg))
	sim := scenario.NewDoor(rt, dial, sp, 1)
	if err := sim.Setup(); err != nil {
		t.Fatal(err)
	}
	sim.Sleep(2 * time.Second) // every partition's bucket is full again
	log := trace.New(100)
	c.SetTrace(log)
	if miss, err := sim.Perform(0, sp.Phases[0], "table_rmw", 2); miss || err != nil {
		t.Fatalf("sim table_rmw: miss=%v err=%v", miss, err)
	}
	calls := map[string]int{}
	for _, op := range log.Ops() {
		calls[op.Name+" "+op.Err]++
	}
	if want := map[string]int{"GetEntity ": 1, "UpdateEntity ServerBusy": 1, "UpdateEntity ": 1}; fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Errorf("sim door sent %v, want %v", calls, want)
	}

	// The live throttler's partition bucket holds 1.7 tokens at 7 ops/s:
	// the read leaves 0.7, too few for the update that follows at once, and
	// enough again after the retry's backoff of at least 80 ms.
	srv := rest.NewServer(rest.Options{Throttle: true, PartitionOpsPerSec: 7})
	hs := httptest.NewServer(srv)
	t.Cleanup(hs.Close)
	st := liverun.NewStore(sdk.New(hs.URL, hs.Client(), scenario.RetryPolicy()))
	live := scenario.NewDoor(liverun.NewRuntime(), func(string) scenario.Store { return st }, sp, 1)
	if err := live.Setup(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond) // the live throttler runs on the wall clock
	before := endpointCounts(srv)
	if miss, err := live.Perform(0, sp.Phases[0], "table_rmw", 2); miss || err != nil {
		t.Fatalf("live table_rmw: miss=%v err=%v", miss, err)
	}
	after := endpointCounts(srv)
	gets, updates := after["GET /table"]-before["GET /table"], after["PUT /table"]-before["PUT /table"]
	if gets != 1 || updates != 2 {
		t.Errorf("live door sent %d reads and %d updates, want 1 and 2", gets, updates)
	}
}

// TestDoorsRefuseABlobNameEndingInASlash: both doors take a blob name as
// sent, so the engine's name check refuses one that ends in a slash on
// each, and neither stores it under the name without the slash.
func TestDoorsRefuseABlobNameEndingInASlash(t *testing.T) {
	sp, err := scenario.Parse([]byte(doorsSpec))
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []door{simDoor(sp), liveDoor(t, sp)} {
		if err := d.drv.Setup(); err != nil {
			t.Fatalf("%s: %v", d.name, err)
		}
		err := d.drv.Do(0, cloud.Op{Kind: cloud.OpUploadBlockBlob, Name: "media", Key: "logs/", Data: payload.String("x")})
		if code := storecommon.CodeOf(err); code != storecommon.CodeInvalidResourceName {
			t.Errorf("%s door: PUT of blob logs/ answered %v, want %s", d.name, err, storecommon.CodeInvalidResourceName)
		}
		if blobs, err := d.blob.ListBlobs("media", "logs"); err != nil || len(blobs) != 0 {
			t.Errorf("%s door: blobs under logs = %v, %v; want none", d.name, blobs, err)
		}
	}
}

// endpointCounts is the server's request count per endpoint.
func endpointCounts(srv *rest.Server) map[string]uint64 {
	out := map[string]uint64{}
	for _, es := range srv.MetricsSnapshot() {
		out[es.Endpoint] = es.Count
	}
	return out
}
