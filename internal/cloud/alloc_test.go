package cloud

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"azurebench/internal/cachestore"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
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
	allocCeiling(t, env, "GetEntity", nil,
		func(p *sim.Proc) {
			if _, err := cl.GetEntity(p, "tbl", "pk", "row"); err != nil {
				t.Error(err)
			}
		})
	allocCeiling(t, env, "UpdateEntity",
		func() { c.Table.Replace("tbl", row, storecommon.ETagAny) },
		func(p *sim.Proc) {
			if _, err := cl.UpdateEntity(p, "tbl", row, storecommon.ETagAny); err != nil {
				t.Error(err)
			}
		})
	// A write leaves a row behind or takes one away: the other half of
	// the cycle goes straight to the engine, on both sides.
	allocCeiling(t, env, "InsertEntity",
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
	allocCeiling(t, env, "DeleteEntity",
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
	// A queue cycle keeps a message ID and a pop receipt, and that is all
	// it may allocate.
	var msg queuestore.Message
	if got := allocCeiling(t, env, "queue cycle",
		func() {
			c.Queue.Put("jobs", body, 0)
			c.Queue.Receive("jobs", false, time.Minute, &msg)
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
		}); got > 2.5 {
		t.Errorf("queue cycle: %.2f allocations per simulated op, ceiling 2", got)
	}
}

// allocCeiling fails t when a simulated operation allocates more than half
// an allocation beyond what its engine call does by itself, and returns
// what it allocates. A nil engine is a call that allocates nothing. Under
// the race detector it skips t.
func allocCeiling(t *testing.T, env *sim.Env, name string, engine func(), simulated func(p *sim.Proc)) float64 {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
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
	return got
}

// TestRemainingOpsAllocateOnlyInTheEngine holds the client's other reads,
// its blob writes and a queue create to TestPointOpsAllocateOnlyInTheEngine's
// ceiling: the engine's own allocations and nothing of the request's.
func TestRemainingOpsAllocateOnlyInTheEngine(t *testing.T) {
	env, c, cl, _ := pointOpsFixture(t)
	block, page := payload.Zero(storecommon.KB), payload.Zero(512)
	if err := c.Blob.CreateContainer("ctn"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Blob.UploadBlockBlob("ctn", "blk", payload.Zero(4*storecommon.KB), ""); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Blob.CreatePageBlob("ctn", "pg", 4*storecommon.KB); err != nil {
		t.Fatal(err)
	}
	if _, err := c.cacheCluster().Put(cachestore.DefaultCache, "k", block, time.Hour); err != nil {
		t.Fatal(err)
	}
	check := func(err error) {
		if err != nil {
			t.Error(err)
		}
	}
	// Each simulated op waits out the per-queue and per-partition limiters
	// (500 ops/s) before it returns.
	paced := func(op func(p *sim.Proc) error) func(p *sim.Proc) {
		return func(p *sim.Proc) {
			check(op(p))
			p.Sleep(10 * time.Millisecond)
		}
	}
	allocCeiling(t, env, "PutBlock",
		func() { c.Blob.PutBlock("ctn", "blk", "YQ==", block) },
		paced(func(p *sim.Proc) error { return cl.PutBlock(p, "ctn", "blk", "YQ==", block) }))
	allocCeiling(t, env, "GetBlock",
		func() { c.Blob.GetBlock("ctn", "blk", 0) },
		paced(func(p *sim.Proc) error { _, err := cl.GetBlock(p, "ctn", "blk", 0); return err }))
	allocCeiling(t, env, "PutPage",
		func() { c.Blob.PutPages("ctn", "pg", 512, page, "") },
		paced(func(p *sim.Proc) error { return cl.PutPage(p, "ctn", "pg", 512, page) }))
	allocCeiling(t, env, "GetPage",
		func() { c.Blob.GetPage("ctn", "pg", 512, 512) },
		paced(func(p *sim.Proc) error { _, err := cl.GetPage(p, "ctn", "pg", 512, 512); return err }))
	allocCeiling(t, env, "Download",
		func() { c.Blob.Download("ctn", "blk") },
		paced(func(p *sim.Proc) error { _, err := cl.Download(p, "ctn", "blk"); return err }))
	allocCeiling(t, env, "DownloadRange",
		func() { c.Blob.DownloadRange("ctn", "blk", 512, 512) },
		paced(func(p *sim.Proc) error { _, err := cl.DownloadRange(p, "ctn", "blk", 512, 512); return err }))
	allocCeiling(t, env, "BlobProps",
		func() { c.Blob.GetProps("ctn", "blk") },
		paced(func(p *sim.Proc) error { _, err := cl.BlobProps(p, "ctn", "blk"); return err }))
	allocCeiling(t, env, "QueryEntities",
		func() { c.Table.Query("tbl", "", 10, tablestore.Continuation{}) },
		paced(func(p *sim.Proc) error {
			_, err := cl.QueryEntities(p, "tbl", "pk", "", 10, tablestore.Continuation{})
			return err
		}))
	allocCeiling(t, env, "GetMessageCount",
		func() { c.Queue.ApproximateCount("jobs") },
		paced(func(p *sim.Proc) error { _, err := cl.GetMessageCount(p, "jobs"); return err }))
	allocCeiling(t, env, "CreateQueueIfNotExists",
		func() { c.Queue.CreateQueueIfNotExists("jobs") },
		paced(func(p *sim.Proc) error { _, err := cl.CreateQueueIfNotExists(p, "jobs"); return err }))
	allocCeiling(t, env, "CacheGet",
		func() { c.cacheCluster().Get(cachestore.DefaultCache, "k") },
		paced(func(p *sim.Proc) error { _, _, err := cl.CacheGet(p, cachestore.DefaultCache, "k"); return err }))
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
