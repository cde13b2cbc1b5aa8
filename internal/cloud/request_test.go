package cloud

import (
	"testing"
	"time"

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
