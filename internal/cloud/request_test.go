package cloud

import (
	"reflect"
	"testing"
	"time"

	"azurebench/internal/cachestore"
	"azurebench/internal/faults"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/trace"
)

// TestEveryRequestParksOnce takes do out of every exit it has. Whichever
// way a request ends — served, throttled, faulted, reset, redirected — its
// process parks once and is resumed once, when the request is over. The
// events are the model's own and are pinned at what they were before do
// was one program.
func TestEveryRequestParksOnce(t *testing.T) {
	kb := func(rk string) *tablestore.Entity {
		return &tablestore.Entity{PartitionKey: "pk", RowKey: rk, Props: map[string]tablestore.Value{
			"Data": tablestore.Binary(payload.Zero(storecommon.KB)),
		}}
	}
	get := func(rk string) func(*sim.Proc, *Client) error {
		return func(p *sim.Proc, cl *Client) error {
			_, err := cl.GetEntity(p, "tbl", "pk", rk)
			return err
		}
	}
	insert := func(p *sim.Proc, cl *Client) error {
		_, err := cl.InsertEntity(p, "tbl", kb("fresh"))
		return err
	}
	faulty := func(op string, kind faults.Kind) *faults.Plan {
		return &faults.Plan{Seed: 1, Timeout: time.Second, Rules: []faults.Rule{{Service: "table", Op: op, Kind: kind, Rate: 1}}}
	}
	dynamic := func(prm *model.Params) {
		prm.PartitionDynamic = true
		prm.TableServers = 2
	}
	cases := []struct {
		name   string
		prm    func(*model.Params)
		plan   *faults.Plan
		prep   func(p *sim.Proc, c *Cloud, cl *Client)
		op     func(*sim.Proc, *Client) error
		code   storecommon.Code
		events uint64
	}{
		{name: "read, response on the NIC", op: get("row"), events: 7},
		{name: "write, body on the NIC", op: insert, events: 6},
		{name: "throttled",
			prm:  func(prm *model.Params) { prm.PartitionOpsPerSec, prm.PartitionBurst = 1, 1 },
			prep: func(p *sim.Proc, _ *Cloud, cl *Client) { get("row")(p, cl) },
			op:   get("row"), code: storecommon.CodeServerBusy, events: 4},
		{name: "timeout", plan: faulty("GetEntity", faults.Timeout),
			op: get("row"), code: storecommon.CodeOperationTimedOut, events: 4},
		{name: "outage", plan: &faults.Plan{Outages: []faults.Window{{Service: "table", Duration: time.Hour}}},
			op: get("row"), code: storecommon.CodeServerUnavailable, events: 4},
		{name: "internal error", plan: faulty("GetEntity", faults.Internal),
			op: get("row"), code: storecommon.CodeInternalError, events: 5},
		{name: "read reset, part of the response sent", plan: faulty("GetEntity", faults.Reset),
			op: get("row"), code: storecommon.CodeConnectionReset, events: 7},
		{name: "read reset, nothing sent", plan: faulty("GetEntity", faults.Reset),
			op: get("missing"), code: storecommon.CodeConnectionReset, events: 6},
		{name: "write reset", plan: faulty("InsertEntity", faults.Reset),
			op: insert, code: storecommon.CodeConnectionReset, events: 2},
		{name: "redirect", prm: dynamic,
			prep: func(p *sim.Proc, c *Cloud, cl *Client) {
				// A new table's one range goes to the next server round
				// robin: "tbl" is on server 0, "other" on 1. The client's
				// cached maps, swapped, route "tbl" to the wrong one.
				get("row")(p, cl)
				cl.GetEntity(p, "other", "pk", "row")
				cl.maps["tbl"], cl.maps["other"] = cl.maps["other"], cl.maps["tbl"]
			},
			op: get("row"), code: storecommon.CodePartitionMoved, events: 4},
		{name: "handoff", prm: dynamic,
			prep: func(p *sim.Proc, c *Cloud, cl *Client) {
				get("row")(p, cl)
				c.PartitionMgr().Promote(p.Now(), time.Hour)
			},
			op: get("row"), code: storecommon.CodeServerBusy, events: 4},
	}
	for _, tc := range cases {
		for _, traced := range []bool{false, true} {
			env := sim.NewEnv(1)
			prm := model.Default()
			if tc.prm != nil {
				tc.prm(&prm)
			}
			c := New(env, prm)
			if tc.plan != nil {
				c.SetFaults(faults.NewInjector(*tc.plan))
			}
			if traced {
				c.SetTrace(trace.New(100))
			}
			for _, err := range []error{c.Table.CreateTable("tbl"), c.Table.CreateTable("other")} {
				if err != nil {
					t.Fatal(err)
				}
			}
			if _, err := c.Table.Insert("tbl", kb("row")); err != nil {
				t.Fatal(err)
			}
			cl := c.NewClient("vm0", model.Small)
			cl.SetRetryPolicy(retry.Policy{}) // every exit is the request's last
			var (
				err              error
				events, switches uint64
			)
			env.Go("client", func(p *sim.Proc) {
				if tc.prep != nil {
					tc.prep(p, c, cl)
				}
				ev0, sw0, _ := env.Telemetry()
				err = tc.op(p, cl)
				ev1, sw1, _ := env.Telemetry()
				events, switches = ev1-ev0, sw1-sw0
			})
			env.Run()
			if code := storecommon.CodeOf(err); code != tc.code {
				t.Errorf("%s (traced %v): error %v, want code %q", tc.name, traced, err, tc.code)
			}
			if events != tc.events || switches != 1 {
				t.Errorf("%s (traced %v): %d events, %d switches; want %d, 1", tc.name, traced, events, switches, tc.events)
			}
		}
	}
}

// TestEveryOpHasARow: each kind a client issues names its trace op and
// service in the ops table, and only the replay's own kind comes after.
func TestEveryOpHasARow(t *testing.T) {
	if len(ops) != int(opReplicaDeleteMessage) {
		t.Fatalf("ops has %d rows for %d client op kinds", len(ops), opReplicaDeleteMessage)
	}
	for k, op := range ops {
		if op.name == "" || op.service == "" {
			t.Errorf("op kind %d has no name or service: %+v", k, op)
		}
	}
}

// contFunc makes a function a sim.Cont.
type contFunc func(*sim.Proc)

func (f contFunc) Resume(p *sim.Proc) { f(p) }

// TestStartedRequestNeverSwitches: a blocking call parks its process once
// however many attempts its request makes, and the same request started
// from a Call step of a process with no coroutine costs no switch at all.
// Either way it fires the same events and comes back at the same instant
// with the same answer.
func TestStartedRequestNeverSwitches(t *testing.T) {
	type outcome struct {
		row        string
		code       storecommon.Code
		at         time.Duration
		events     uint64
		retries    uint64
		opSwitches uint64
	}
	run := func(throttled, started bool) (out outcome) {
		env := sim.NewEnv(1)
		prm := model.Default()
		if throttled { // the second get is throttled and retried a second later
			prm.PartitionOpsPerSec, prm.PartitionBurst = 1, 1
		}
		c := New(env, prm)
		if err := c.Table.CreateTable("tbl"); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Table.Insert("tbl", &tablestore.Entity{PartitionKey: "pk", RowKey: "row"}); err != nil {
			t.Fatal(err)
		}
		cl := c.NewClient("vm0", model.Small)
		op := &Op{Kind: OpGetEntity, Name: "tbl", Key: "pk", ID: "row"}
		answered := func(p *sim.Proc, row tablestore.Row, err error) {
			out.row, out.code, out.at = row.RowKey(), storecommon.CodeOf(err), p.Now()
		}
		if started {
			env.GoCont("client", contFunc(func(p *sim.Proc) {
				cl.Start(p, op, contFunc(func(p *sim.Proc) {
					cl.Start(p, op, contFunc(func(p *sim.Proc) { answered(p, op.Row, op.Err) }))
				}))
			}))
		} else {
			env.Go("client", func(p *sim.Proc) {
				cl.GetEntity(p, "tbl", "pk", "row")
				_, sw0, _ := env.Telemetry()
				row, err := cl.GetEntity(p, "tbl", "pk", "row")
				_, sw1, _ := env.Telemetry()
				answered(p, row, err)
				out.opSwitches = sw1 - sw0
			})
		}
		env.Run()
		var switches uint64
		out.events, switches, _ = env.Telemetry()
		out.retries = c.Stats().Retries
		if started && switches != 0 {
			t.Errorf("throttled %v: %d switches for started requests", throttled, switches)
		}
		return out
	}
	for _, throttled := range []bool{false, true} {
		blocking, started := run(throttled, false), run(throttled, true)
		if blocking.opSwitches != 1 {
			t.Errorf("throttled %v: the blocking get made %d switches, want 1", throttled, blocking.opSwitches)
		}
		if blocking.retries != map[bool]uint64{false: 0, true: 1}[throttled] {
			t.Errorf("throttled %v: %d retries", throttled, blocking.retries)
		}
		blocking.opSwitches = 0
		if blocking != started || blocking.row != "row" || blocking.code != "" {
			t.Errorf("throttled %v:\nblocking %+v\nstarted  %+v", throttled, blocking, started)
		}
	}
}

// startScript issues steps one after another with Start from a process with
// no coroutine, each on op, or on a fresh Op when op is nil, and keeps each
// answer. A step sets every argument field and leaves the answer alone, as
// a runner that reuses one Op does.
type startScript struct {
	cl    *Client
	op    *Op
	fresh bool
	steps []Op
	got   []Answer
}

func (s *startScript) Resume(p *sim.Proc) {
	if s.op != nil && len(s.got) < len(s.steps) {
		s.got = append(s.got, s.op.Answer)
	}
	if len(s.got) == len(s.steps) {
		return
	}
	if s.fresh || s.op == nil {
		s.op = new(Op)
	}
	answer := s.op.Answer
	*s.op = s.steps[len(s.got)]
	s.op.Answer = answer
	s.cl.Start(p, s.op, s)
}

// TestReusedOpShowsNoStaleAnswer: Start clears only what the answer before
// it set, so a reused Op must come back from each request with exactly the
// answer a fresh Op gets — in particular with no part of an earlier answer
// left behind by one that never reached its engine.
func TestReusedOpShowsNoStaleAnswer(t *testing.T) {
	steps := []Op{
		{Kind: OpGetMessage, Name: "jobs", TTL: time.Minute},             // hit
		{Kind: OpGetMessage, Name: "jobs", TTL: time.Minute},             // miss
		{Kind: OpPutMessage, Name: "jobs", Data: payload.Zero(16)},       // a message put
		{Kind: OpPeekMessage, Name: "jobs"},                              // times out before the engine
		{Kind: OpQueryEntities, Name: "tbl", Top: 10},                    // a page of two rows
		{Kind: OpGetEntity, Name: "tbl", Key: "pk", ID: "a"},             // a row
		{Kind: OpGetEntity, Name: "tbl", Key: "pk", ID: "missing"},       // an error
		{Kind: OpGetEntity, Name: "tbl", Key: "pk", ID: "b"},             // a success
		{Kind: OpCacheGet, Name: cachestore.DefaultCache, Key: "k"},      // hit
		{Kind: OpGetMessageCount, Name: "jobs"},                          // a count
		{Kind: OpCacheGet, Name: cachestore.DefaultCache, Key: "absent"}, // miss
		{Kind: OpBlobProps, Name: "ctn", Key: "blob"},                    // props
		{Kind: OpGetEntity, Name: "tbl", Key: "pk", ID: "missing"},       // an error again
	}
	run := func(fresh bool) []Answer {
		env := sim.NewEnv(1)
		c := New(env, model.Default())
		c.SetFaults(faults.NewInjector(faults.Plan{Seed: 1, Timeout: time.Second,
			Rules: []faults.Rule{{Service: "queue", Op: "PeekMessage", Kind: faults.Timeout, Rate: 1}}}))
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(c.Queue.CreateQueue("jobs"))
		_, err := c.Queue.Put("jobs", payload.Zero(8), 0)
		must(err)
		must(c.Table.CreateTable("tbl"))
		for _, rk := range []string{"a", "b"} {
			_, err = c.Table.Insert("tbl", &tablestore.Entity{PartitionKey: "pk", RowKey: rk})
			must(err)
		}
		_, err = c.cacheCluster().Put(cachestore.DefaultCache, "k", payload.Zero(8), time.Hour)
		must(err)
		must(c.Blob.CreateContainer("ctn"))
		_, err = c.Blob.UploadBlockBlob("ctn", "blob", payload.Zero(64), "")
		must(err)
		cl := c.NewClient("vm0", model.Small)
		cl.SetRetryPolicy(retry.Policy{})
		s := &startScript{cl: cl, fresh: fresh, steps: steps}
		env.GoCont("client", s)
		env.Run()
		if len(s.got) != len(steps) {
			t.Fatalf("fresh %v: %d of %d answers", fresh, len(s.got), len(steps))
		}
		return s.got
	}
	reused, fresh := run(false), run(true)
	for i := range steps {
		if !reflect.DeepEqual(reused[i], fresh[i]) {
			t.Errorf("step %d (%s): reused Op answered\n%+v\nfresh Op\n%+v", i, ops[steps[i].Kind].name, reused[i], fresh[i])
		}
	}
	if fresh[1].OK || fresh[3].Err == nil || fresh[6].Err == nil || !fresh[8].OK || fresh[10].OK {
		t.Errorf("the script did not hit, miss and fail where it should: %+v", fresh)
	}
}
