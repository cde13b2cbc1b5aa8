package cloud

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
)

// pointOpsFixture is a quiet cloud with one row and one queue, and a
// client to reach them.
func pointOpsFixture(tb testing.TB) (*sim.Env, *Cloud, *Client, *tablestore.Entity) {
	tb.Helper()
	env := sim.NewEnv(1)
	c := New(env, model.Default())
	row := &tablestore.Entity{PartitionKey: "pk", RowKey: "row", Props: map[string]tablestore.Value{
		"Data": tablestore.Binary(payload.Zero(storecommon.KB)),
	}}
	if err := c.Table.CreateTable("tbl"); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Table.Insert("tbl", row); err != nil {
		tb.Fatal(err)
	}
	if err := c.Queue.CreateQueue("jobs"); err != nil {
		tb.Fatal(err)
	}
	// The engines' own allocations per call settle once their maps and
	// heaps have grown to the size of a cycle.
	for i := 0; i < 300; i++ {
		msg, err := c.Queue.Put("jobs", payload.Zero(1), 0)
		if err == nil {
			err = c.Queue.ReplicaDelete("jobs", msg.ID)
		}
		if err == nil {
			_, err = c.Table.Replace("tbl", row, storecommon.ETagAny)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return env, c, c.NewClient("vm0", model.Small), row
}

// allocsPerRun is testing.AllocsPerRun without its rounding down to a whole
// number: the engines' heaps and queues grow now and then, so both sides of
// the comparison below sit a few hundredths off a whole number, and
// truncation turns 6.99 against 7.01 into 6 against 7.
func allocsPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestPointOpsAllocateOnlyInTheEngine: a simulated point operation — the
// request record, its programs, the admission checks, the error
// classification — allocates nothing of its own. The ceiling is whatever
// the engine call underneath allocates (tablestore.Replace clones and
// stamps the row, and so on), measured here rather than written down, plus
// zero. A read has no engine call to measure: tablestore.Get hands out the
// stored row, so a simulated get allocates nothing at all.
func TestPointOpsAllocateOnlyInTheEngine(t *testing.T) {
	env, c, cl, row := pointOpsFixture(t)
	body := payload.Zero(storecommon.KB)
	fresh := row.Clone()
	fresh.RowKey = "fresh"
	measure := func(name string, engine func(), simulated func(p *sim.Proc)) {
		floor := 0.0
		if engine != nil {
			floor = allocsPerRun(200, func() {
				// The engines read the virtual clock (time stamps, pop
				// receipts): let it move here as it does under simulated
				// requests.
				env.RunUntil(env.Now() + 10*time.Millisecond)
				engine()
			})
		}
		var got float64
		env.Go(name, func(p *sim.Proc) {
			simulated(p) // first touch: stations, limiters, heap capacity
			got = allocsPerRun(200, func() { simulated(p) })
		})
		env.Run()
		if got > floor+0.5 {
			t.Errorf("%s: %.2f allocations per simulated op, the engine's own are %.2f", name, got, floor)
		}
	}
	measure("GetEntity", nil,
		func(p *sim.Proc) {
			if _, err := cl.GetEntity(p, "tbl", "pk", "row"); err != nil {
				t.Error(err)
			}
		})
	measure("UpdateEntity",
		func() { c.Table.Replace("tbl", row, storecommon.ETagAny) },
		func(p *sim.Proc) {
			if _, err := cl.UpdateEntity(p, "tbl", row, storecommon.ETagAny); err != nil {
				t.Error(err)
			}
		})
	// A write leaves a row behind or takes one away: the other half of
	// the cycle goes straight to the engine, on both sides.
	measure("InsertEntity",
		func() {
			c.Table.Insert("tbl", fresh)
			c.Table.Delete("tbl", "pk", "fresh", storecommon.ETagAny)
		},
		func(p *sim.Proc) {
			if _, err := cl.InsertEntity(p, "tbl", fresh); err != nil {
				t.Error(err)
			}
			c.Table.Delete("tbl", "pk", "fresh", storecommon.ETagAny)
		})
	measure("DeleteEntity",
		func() {
			c.Table.Insert("tbl", fresh)
			c.Table.Delete("tbl", "pk", "fresh", storecommon.ETagAny)
		},
		func(p *sim.Proc) {
			c.Table.Insert("tbl", fresh)
			if err := cl.DeleteEntity(p, "tbl", "pk", "fresh", storecommon.ETagAny); err != nil {
				t.Error(err)
			}
		})
	measure("queue cycle",
		func() {
			c.Queue.Put("jobs", body, 0)
			c.Queue.ApproximateCount("jobs")
			msg, _, _ := c.Queue.GetOne("jobs", time.Minute)
			c.Queue.Delete("jobs", msg.ID, msg.PopReceipt)
		},
		func(p *sim.Proc) {
			if _, err := cl.PutMessage(p, "jobs", body); err != nil {
				t.Error(err)
			}
			msg, ok, err := cl.GetMessage(p, "jobs", time.Minute)
			if err != nil || !ok {
				t.Errorf("GetMessage: %v %v", ok, err)
			}
			if err := cl.DeleteMessage(p, "jobs", msg.ID, msg.PopReceipt); err != nil {
				t.Error(err)
			}
			// The per-queue limiter admits 500 ops/s: pace the cycle.
			p.Sleep(10 * time.Millisecond)
		})
}

// BenchmarkSimTableGet is the simulated point read by itself — the
// cloud.table_get_us replay of bench/ as a go test benchmark — with the
// kernel's own counts: events per operation are the model's (seven
// uncontended) and do not move with the implementation; switches per
// operation are how often the kernel had to resume the process to get
// them.
func BenchmarkSimTableGet(b *testing.B) {
	env, _, cl, _ := pointOpsFixture(b)
	b.ReportAllocs()
	env.Go("reader", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.GetEntity(p, "tbl", "pk", "row"); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	env.Run()
	events, switches, _ := env.Telemetry()
	b.ReportMetric(float64(events)/float64(b.N), "events/op")
	b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
}

// BenchmarkSimQueueCycle is one simulated put, get and delete of a 1 KB
// message — the cloud.queue_cycle_us replay of bench/ as a go test
// benchmark, which holds still where a few thousand cycles do not.
func BenchmarkSimQueueCycle(b *testing.B) {
	env, _, cl, _ := pointOpsFixture(b)
	body := payload.Zero(storecommon.KB)
	b.ReportAllocs()
	env.Go("worker", func(p *sim.Proc) {
		for i := 0; i < b.N; i++ {
			if _, err := cl.PutMessage(p, "jobs", body); err != nil {
				b.Error(err)
				return
			}
			msg, ok, err := cl.GetMessage(p, "jobs", time.Minute)
			if err == nil && !ok {
				b.Error("queue empty after put")
				return
			}
			if err == nil {
				err = cl.DeleteMessage(p, "jobs", msg.ID, msg.PopReceipt)
			}
			if err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	env.Run()
}

// BenchmarkSimTableInsert is a simulated insert of a 1 KB row under a new
// row key each time, as Algorithm 5's insert phase does.
func BenchmarkSimTableInsert(b *testing.B) {
	env, _, cl, row := pointOpsFixture(b)
	rowKeys := make([]string, b.N)
	for i := range rowKeys {
		rowKeys[i] = fmt.Sprintf("row-%07d", i)
	}
	e := row.Clone()
	b.ReportAllocs()
	env.Go("writer", func(p *sim.Proc) {
		for _, rk := range rowKeys {
			e.RowKey = rk
			if _, err := cl.InsertEntity(p, "tbl", e); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ResetTimer()
	env.Run()
}
