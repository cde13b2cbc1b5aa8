package cloud

import (
	"fmt"
	"testing"
	"time"

	"azurebench/internal/blobstore"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
)

func newSim() (*sim.Env, *Cloud) {
	env := sim.NewEnv(1)
	c := New(env, model.Default())
	return env, c
}

// run executes fn as a simulation process and returns the elapsed virtual
// time of the whole run.
func run(t *testing.T, fn func(p *sim.Proc)) time.Duration {
	t.Helper()
	env := sim.NewEnv(1)
	c := New(env, model.Default())
	cl := c.NewClient("vm0", model.Small)
	var failed error
	env.Go("main", func(p *sim.Proc) {
		defer func() {
			if r := recover(); r != nil {
				failed = fmt.Errorf("panic: %v", r)
			}
		}()
		clientUnderTest = cl
		fn(p)
	})
	end := env.Run()
	if failed != nil {
		t.Fatal(failed)
	}
	return end
}

// clientUnderTest is set by run for concise test bodies.
var clientUnderTest *Client

func TestBlobUploadDownloadRoundTrip(t *testing.T) {
	run(t, func(p *sim.Proc) {
		cl := clientUnderTest
		if err := cl.CreateContainer(p, "bench"); err != nil {
			t.Error(err)
			return
		}
		data := payload.Synthetic(5, 1<<20)
		if err := cl.PutBlock(p, "bench", "blob", "b0", data); err != nil {
			t.Error(err)
			return
		}
		if err := cl.PutBlockList(p, "bench", "blob", []blobstore.BlockRef{{ID: "b0", Source: blobstore.Latest}}); err != nil {
			t.Error(err)
			return
		}
		got, err := cl.Download(p, "bench", "blob")
		if err != nil {
			t.Error(err)
			return
		}
		if !payload.Equal(got, data) {
			t.Error("content mismatch after cloud round trip")
		}
	})
}

func TestOperationsTakeVirtualTime(t *testing.T) {
	elapsed := run(t, func(p *sim.Proc) {
		cl := clientUnderTest
		if err := cl.CreateContainer(p, "bench"); err != nil {
			t.Error(err)
		}
		if err := cl.PutBlock(p, "bench", "b", "id0", payload.Synthetic(1, 1<<20)); err != nil {
			t.Error(err)
		}
	})
	// 1 MB over a 12.5 MB/s NIC alone is 80 ms; plus ~47 ms block-write
	// occupancy. Anything under 100 ms means a cost leg was dropped.
	if elapsed < 100*time.Millisecond || elapsed > time.Second {
		t.Fatalf("1MB PutBlock elapsed %v, want ~130ms", elapsed)
	}
}

func TestPageUploadFasterThanBlockUpload(t *testing.T) {
	env, c := newSim()
	cl := c.NewClient("vm0", model.Small)
	var blockT, pageT time.Duration
	env.Go("main", func(p *sim.Proc) {
		if err := cl.CreateContainer(p, "bench"); err != nil {
			t.Error(err)
			return
		}
		if err := cl.CreatePageBlob(p, "bench", "pb", 64<<20); err != nil {
			t.Error(err)
			return
		}
		data := payload.Synthetic(2, 1<<20)
		t0 := p.Now()
		for i := 0; i < 8; i++ {
			if err := cl.PutBlock(p, "bench", "bb", fmt.Sprintf("id%03d", i), data); err != nil {
				t.Error(err)
				return
			}
		}
		blockT = p.Now() - t0
		t0 = p.Now()
		for i := 0; i < 8; i++ {
			if err := cl.PutPage(p, "bench", "pb", int64(i)<<20, data); err != nil {
				t.Error(err)
				return
			}
		}
		pageT = p.Now() - t0
	})
	env.Run()
	if pageT >= blockT {
		t.Fatalf("page upload (%v) not faster than block upload (%v)", pageT, blockT)
	}
}

// TestReadReplicasScaleDownloads verifies reads fan out over 3 replicas:
// three concurrent downloaders should finish in about the time of one
// (server-side), while six take about twice that.
func TestReadReplicasScaleDownloads(t *testing.T) {
	makespan := func(workers int) time.Duration {
		env, c := newSim()
		setup := c.NewClient("setup", model.Small)
		env.Go("setup", func(p *sim.Proc) {
			if err := setup.CreateContainer(p, "bench"); err != nil {
				t.Error(err)
				return
			}
			if err := setup.UploadBlockBlob(p, "bench", "blob", payload.Synthetic(1, 8<<20)); err != nil {
				t.Error(err)
			}
		})
		env.Run()
		start := env.Now()
		for w := 0; w < workers; w++ {
			cl := c.NewClient(fmt.Sprintf("vm%d", w), model.ExtraLarge) // fat NIC: server-bound
			env.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
				if _, err := cl.Download(p, "bench", "blob"); err != nil {
					t.Error(err)
				}
			})
		}
		env.Run()
		return env.Now() - start
	}
	one := makespan(1)
	three := makespan(3)
	six := makespan(6)
	if three > one*3/2 {
		t.Fatalf("3 replicas did not absorb 3 readers: 1->%v 3->%v", one, three)
	}
	if six < three*3/2 {
		t.Fatalf("6 readers should queue behind 3 replicas: 3->%v 6->%v", three, six)
	}
}

func TestQueueThrottleServerBusy(t *testing.T) {
	// With realistic per-op latencies a sequential client cannot exceed
	// the 500 msg/s target, so tighten the limiter to prove the mechanism:
	// a simultaneous burst of workers larger than the bucket must see
	// ServerBusy while the rest succeed.
	env := sim.NewEnv(1)
	prm := model.Default()
	prm.QueueOpsPerSec = 50
	prm.QueueBurst = 5
	c := New(env, prm)
	setup := c.NewClient("setup", model.Small)
	env.Go("setup", func(p *sim.Proc) {
		if err := setup.CreateQueue(p, "shared-q"); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	const workers = 16
	busy, okCount := 0, 0
	for w := 0; w < workers; w++ {
		cl := c.NewClient(fmt.Sprintf("vm%d", w), model.ExtraLarge)
		cl.SetRetryPolicy(retry.Policy{}) // one attempt: see the raw ServerBusy
		env.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			for i := 0; i < 10; i++ {
				_, err := cl.PutMessage(p, "shared-q", payload.Zero(128))
				switch {
				case err == nil:
					okCount++
				case storecommon.IsServerBusy(err):
					busy++
				default:
					t.Error(err)
					return
				}
			}
		})
	}
	env.Run()
	if busy == 0 {
		t.Fatalf("no ServerBusy from a %d-worker burst against burst=5 (ok=%d)", workers, okCount)
	}
	if okCount == 0 {
		t.Fatal("every op throttled; limiter too aggressive")
	}
	if got := c.Stats().BusyRejects; got != uint64(busy) {
		t.Fatalf("stats.BusyRejects = %d, counted %d", got, busy)
	}
}

func TestWithRetryRecoversFromBusy(t *testing.T) {
	// A rate lower than the client's natural sequential rate forces
	// periodic ServerBusy; the client's default policy (sleep 1 s, retry —
	// the paper's recovery) must still complete every operation exactly
	// once.
	env := sim.NewEnv(1)
	prm := model.Default()
	prm.QueueOpsPerSec = 20
	prm.QueueBurst = 3
	c := New(env, prm)
	cl := c.NewClient("vm0", model.ExtraLarge)
	env.Go("main", func(p *sim.Proc) {
		if err := cl.CreateQueue(p, "q-0"); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 60; i++ {
			if _, err := cl.PutMessage(p, "q-0", payload.Zero(16)); err != nil {
				t.Error(err)
				return
			}
		}
		if n, err := cl.GetMessageCount(p, "q-0"); err != nil || n != 60 {
			t.Errorf("count = %d, %v", n, err)
		}
	})
	env.Run()
	if c.Stats().Retries == 0 {
		t.Fatal("expected at least one retry against the tightened limiter")
	}
}

func TestTablePartitionPlacementRoundRobin(t *testing.T) {
	env, c := newSim()
	cl := c.NewClient("vm0", model.Small)
	env.Go("main", func(p *sim.Proc) {
		if err := cl.CreateTable(p, "bench"); err != nil {
			t.Error(err)
			return
		}
		for w := 0; w < 8; w++ {
			e := &tablestore.Entity{PartitionKey: fmt.Sprintf("w%d", w), RowKey: "r"}
			if _, err := cl.InsertEntity(p, "bench", e); err != nil {
				t.Error(err)
				return
			}
		}
	})
	env.Run()
	// 8 partitions over 4 servers: every server hosts exactly 2.
	counts := map[int]int{}
	for w := 0; w < 8; w++ {
		counts[c.pmgr.Place("bench", fmt.Sprintf("w%d", w))]++
	}
	for srv, n := range counts {
		if n != 2 {
			t.Fatalf("server %d hosts %d partitions, want 2 (placement %v)", srv, n, counts)
		}
	}
}

// TestDynamicPlacementSplitsAndRedirects drives a single hot partition
// key range under dynamic placement and checks the full partition-map
// protocol end to end: the master splits the hot range, clients with
// stale cached maps get redirected (and recover via retry), and requests
// that land inside a migration blackout bounce with ServerBusy.
func TestDynamicPlacementSplitsAndRedirects(t *testing.T) {
	env := sim.NewEnv(1)
	prm := model.Default()
	prm.PartitionDynamic = true
	prm.TableServers = 2
	prm.MaxTableServers = 4
	prm.PartitionSplitOpsPerSec = 50
	prm.PartitionControlInterval = 500 * time.Millisecond
	prm.PartitionMigrationBlackout = 500 * time.Millisecond
	prm.PartitionMapCacheTTL = 2 * time.Second
	// Keep admission throttles out of the picture: this test is about
	// routing, not rate limiting.
	prm.PartitionOpsPerSec = 1e6
	prm.PartitionBurst = 1e6
	c := New(env, prm)
	const workers = 8
	for w := 0; w < workers; w++ {
		cl := c.NewClient(fmt.Sprintf("vm%d", w), model.Small)
		cl.SetRetryPolicy(retry.Resilient())
		env.Go(cl.name, func(p *sim.Proc) {
			if w == 0 {
				if _, err := cl.CreateTableIfNotExists(p, "bench"); err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < 16; i++ {
					e := &tablestore.Entity{PartitionKey: fmt.Sprintf("pk%02d", i), RowKey: "r"}
					if _, err := cl.InsertEntity(p, "bench", e); err != nil {
						t.Error(err)
						return
					}
				}
			} else {
				p.Sleep(time.Second)
			}
			// Three hot keys: the first split happens while only worker 0
			// runs; the second lands after every worker has cached a map, so
			// stale routes must be redirected — and since both servers carry
			// load by then, the moved half forces a scale-out.
			deadline := env.Now() + 10*time.Second
			for env.Now() < deadline {
				pk := fmt.Sprintf("pk%02d", w%3)
				if _, err := cl.GetEntity(p, "bench", pk, "r"); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		})
	}
	env.Run()
	st := c.PartitionMgr().Stats()
	if st.Splits < 2 {
		t.Fatalf("hot partitions never split: %+v", st)
	}
	if st.Redirects == 0 {
		t.Fatalf("no stale-map redirects despite %d splits: %+v", st.Splits, st)
	}
	if st.HandoffRejects == 0 {
		t.Errorf("no requests bounced off a migration blackout: %+v", st)
	}
	if st.Servers <= 2 {
		t.Errorf("no scale-out: still %d servers", st.Servers)
	}
	if len(c.Stations()) < st.Servers {
		t.Errorf("telemetry stations (%d) missing provisioned servers (%d)", len(c.Stations()), st.Servers)
	}
}

// TestQueueLimiterPoolBounded opens far more queues than fit a working
// set and checks the per-queue limiter pool evicts idle entries instead
// of growing with every queue name ever seen.
func TestQueueLimiterPoolBounded(t *testing.T) {
	env, c := newSim()
	cl := c.NewClient("vm0", model.Small)
	var maxLen int
	env.Go("main", func(p *sim.Proc) {
		for i := 0; i < 500; i++ {
			name := fmt.Sprintf("q-%d", i)
			if err := cl.CreateQueue(p, name); err != nil {
				t.Error(err)
				return
			}
			if _, err := cl.PutMessage(p, name, payload.Synthetic(uint64(i), 512)); err != nil {
				t.Error(err)
				return
			}
			if n := c.queueTB.Len(); n > maxLen {
				maxLen = n
			}
			p.Sleep(200 * time.Millisecond)
		}
	})
	env.Run()
	if maxLen >= 500 {
		t.Fatalf("limiter pool grew unbounded: peak %d entries for 500 queues", maxLen)
	}
	if c.queueTB.Len() >= 500 {
		t.Fatalf("limiter pool still holds %d entries after the run", c.queueTB.Len())
	}
}

func TestTableCRUDThroughCloud(t *testing.T) {
	run(t, func(p *sim.Proc) {
		cl := clientUnderTest
		if err := cl.CreateTable(p, "bench"); err != nil {
			t.Error(err)
			return
		}
		e := &tablestore.Entity{
			PartitionKey: "p", RowKey: "r",
			Props: map[string]tablestore.Value{"Data": tablestore.Binary(payload.Synthetic(1, 4096))},
		}
		if _, err := cl.InsertEntity(p, "bench", e); err != nil {
			t.Error(err)
			return
		}
		got, err := cl.GetEntity(p, "bench", "p", "r")
		if err != nil {
			t.Error(err)
			return
		}
		if data, _ := got.Prop("Data"); data.Bin.Len() != 4096 {
			t.Errorf("get = %d bytes of Data", data.Bin.Len())
			return
		}
		e.Props["Data"] = tablestore.Binary(payload.Synthetic(2, 4096))
		if _, err := cl.UpdateEntity(p, "bench", e, storecommon.ETagAny); err != nil {
			t.Error(err)
			return
		}
		if err := cl.DeleteEntity(p, "bench", "p", "r", storecommon.ETagAny); err != nil {
			t.Error(err)
			return
		}
		if _, err := cl.GetEntity(p, "bench", "p", "r"); !storecommon.IsNotFound(err) {
			t.Errorf("get after delete = %v", err)
		}
	})
}

func TestTableContentionBeyondFourWorkers(t *testing.T) {
	// Per-worker insert time should be roughly flat from 1 to 4 workers
	// (distinct servers) and clearly higher at 32 (8 partitions/server) —
	// the paper's "almost constant till 4 concurrent clients" behaviour
	// with 32/64 KB entities degrading past that.
	perOp := func(workers int) time.Duration {
		env, c := newSim()
		setup := c.NewClient("setup", model.Small)
		env.Go("setup", func(p *sim.Proc) {
			if err := setup.CreateTable(p, "bench"); err != nil {
				t.Error(err)
			}
		})
		env.Run()
		start := env.Now()
		const rows = 40
		for w := 0; w < workers; w++ {
			cl := c.NewClient(fmt.Sprintf("vm%d", w), model.Small)
			pk := fmt.Sprintf("w%d", w)
			env.Go(pk, func(p *sim.Proc) {
				for r := 0; r < rows; r++ {
					e := &tablestore.Entity{
						PartitionKey: pk, RowKey: fmt.Sprintf("r%03d", r),
						Props: map[string]tablestore.Value{"D": tablestore.Binary(payload.Zero(64 * 1024))},
					}
					if _, err := cl.InsertEntity(p, "bench", e); err != nil {
						t.Error(err)
						return
					}
				}
			})
		}
		env.Run()
		return (env.Now() - start) / rows
	}
	t1, t4, t32 := perOp(1), perOp(4), perOp(32)
	if t4 > t1*3/2 {
		t.Fatalf("contention below 4 workers: t1=%v t4=%v", t1, t4)
	}
	if t32 < t4*5/2 {
		t.Fatalf("no contention at 32 workers: t4=%v t32=%v", t4, t32)
	}
}

func TestQueueMessageRoundTripThroughCloud(t *testing.T) {
	run(t, func(p *sim.Proc) {
		cl := clientUnderTest
		if err := cl.CreateQueue(p, "q-0"); err != nil {
			t.Error(err)
			return
		}
		body := payload.Synthetic(3, 4096)
		if _, err := cl.PutMessage(p, "q-0", body); err != nil {
			t.Error(err)
			return
		}
		peeked, ok, err := cl.PeekMessage(p, "q-0")
		if err != nil || !ok || !payload.Equal(peeked.Body, body) {
			t.Errorf("peek = %v %v", ok, err)
			return
		}
		msg, ok, err := cl.GetMessage(p, "q-0", time.Minute)
		if err != nil || !ok {
			t.Errorf("get = %v %v", ok, err)
			return
		}
		if err := cl.DeleteMessage(p, "q-0", msg.ID, msg.PopReceipt); err != nil {
			t.Error(err)
		}
	})
}

func TestStatsAccumulate(t *testing.T) {
	env, c := newSim()
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
		}
	})
	env.Run()
	st := c.Stats()
	if st.Ops < 3 {
		t.Fatalf("ops = %d", st.Ops)
	}
	if st.BytesIn < 1024 || st.BytesOut < 1024 {
		t.Fatalf("bytes in/out = %d/%d", st.BytesIn, st.BytesOut)
	}
}
