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
)

// miniWorkload runs a small mixed blob/queue/table workload and returns
// the final virtual clock and cloud stats. With strict set, any storage
// error fails the test; fault-injecting callers clear it and retry
// transient failures instead (so the workload shape stays deterministic
// either way).
func miniWorkload(t *testing.T, strict bool, attach func(*Cloud)) (time.Duration, Stats) {
	t.Helper()
	env := sim.NewEnv(99)
	c := New(env, model.Default())
	if attach != nil {
		attach(c)
	}
	cl := c.NewClient("vm0", model.Small)
	cl.SetRetryPolicy(retry.Policy{
		MaxAttempts: 10,
		BaseDelay:   500 * time.Millisecond,
		Multiplier:  1,
		Classify:    storecommon.IsRetriable,
	})
	env.Go("main", func(p *sim.Proc) {
		must := func(what string, err error) {
			if strict && err != nil {
				t.Errorf("%s failed: %v", what, err)
			}
		}
		must("create container", cl.CreateContainer(p, "ctn"))
		must("upload", cl.UploadBlockBlob(p, "ctn", "b", payload.Zero(64*storecommon.KB)))
		_, err := cl.Download(p, "ctn", "b")
		must("download", err)
		_, err = cl.CreateQueueIfNotExists(p, "qq0")
		must("create queue", err)
		for i := 0; i < 10; i++ {
			_, err := cl.PutMessage(p, "qq0", payload.Zero(4*storecommon.KB))
			must("put", err)
			msg, got, err := cl.GetMessage(p, "qq0", time.Minute)
			must("get", err)
			if !got {
				if strict {
					t.Error("message missing")
				}
				continue
			}
			if err := cl.DeleteMessage(p, "qq0", msg.ID, msg.PopReceipt); !storecommon.IsNotFound(err) {
				must("delete", err)
			}
		}
		must("create table", cl.CreateTable(p, "tbl"))
		ent := &tablestore.Entity{
			PartitionKey: "pk",
			RowKey:       "rk",
			Props: map[string]tablestore.Value{
				"Data": tablestore.Binary(payload.Zero(storecommon.KB)),
			},
		}
		_, err = cl.InsertEntity(p, "tbl", ent)
		must("insert", err)
		_, err = cl.GetEntity(p, "tbl", "pk", "rk")
		must("query", err)
	})
	env.Run()
	return env.Now(), c.Stats()
}

// TestZeroRateInjectorNoDrift is the bit-identical guard from the issue:
// attaching an injector whose plan has zero rates must leave the
// happy-path timing and counters exactly as with no injector at all (no
// stray PRNG draws, no added sleeps).
func TestZeroRateInjectorNoDrift(t *testing.T) {
	bareNow, bareStats := miniWorkload(t, true, nil)
	injNow, injStats := miniWorkload(t, true, func(c *Cloud) {
		c.SetFaults(faults.NewInjector(faults.Uniform(99, 0)))
	})
	if bareNow != injNow {
		t.Errorf("virtual clock drifted: bare=%v injector=%v", bareNow, injNow)
	}
	if bareStats != injStats {
		t.Errorf("stats drifted:\nbare     = %+v\ninjector = %+v", bareStats, injStats)
	}
}

// TestFaultStatsDeterministic re-runs the same faulted workload twice and
// requires identical clocks, cloud stats and injector schedules.
func TestFaultStatsDeterministic(t *testing.T) {
	run := func() (time.Duration, Stats, string) {
		var in *faults.Injector
		now, st := miniWorkload(t, false, func(c *Cloud) {
			in = faults.NewInjector(faults.Plan{
				Seed:  99,
				Rules: []faults.Rule{{Kind: faults.Internal, Rate: 0.2}},
			})
			c.SetFaults(in)
		})
		return now, st, in.Schedule()
	}
	aNow, aStats, aSched := run()
	bNow, bStats, bSched := run()
	if aNow != bNow || aStats != bStats || aSched != bSched {
		t.Fatalf("faulted runs diverged:\nA: now=%v stats=%+v\n%s\nB: now=%v stats=%+v\n%s",
			aNow, aStats, aSched, bNow, bStats, bSched)
	}
	if aStats.FaultInternals == 0 {
		t.Fatal("no faults injected; determinism guard is vacuous")
	}
}

// TestQueueAtLeastOnce drops every DeleteMessage response-side and
// verifies the at-least-once contract: the message reappears after its
// visibility timeout with an incremented dequeue count, and can then be
// deleted for real once the fault clears.
func TestQueueAtLeastOnce(t *testing.T) {
	env := sim.NewEnv(7)
	c := New(env, model.Default())
	c.SetFaults(faults.NewInjector(faults.Plan{
		Seed:    7,
		Rules:   []faults.Rule{{Service: "queue", Op: "DeleteMessage", Kind: faults.Timeout, Rate: 1}},
		Timeout: 2 * time.Second, // give up on the lost delete while the claim is still live
	}))
	cl := c.NewClient("vm0", model.Small)
	env.Go("main", func(p *sim.Proc) {
		if _, err := cl.CreateQueueIfNotExists(p, "qq0"); err != nil {
			t.Error(err)
			return
		}
		if _, err := cl.PutMessage(p, "qq0", payload.Zero(1024)); err != nil {
			t.Error(err)
			return
		}
		const visibility = 10 * time.Second
		msg, ok, err := cl.GetMessage(p, "qq0", visibility)
		if err != nil || !ok {
			t.Errorf("first get: ok=%v err=%v", ok, err)
			return
		}
		if msg.DequeueCount != 1 {
			t.Errorf("first dequeue count = %d", msg.DequeueCount)
		}
		// The delete is swallowed by the network: the client sees a
		// timeout, the engine never commits the delete.
		err = cl.DeleteMessage(p, "qq0", msg.ID, msg.PopReceipt)
		if storecommon.CodeOf(err) != storecommon.CodeOperationTimedOut {
			t.Errorf("dropped delete returned %v", err)
			return
		}
		// Before the visibility timeout the message is still claimed.
		if _, ok, err := cl.GetMessage(p, "qq0", visibility); err != nil || ok {
			t.Errorf("message visible while claimed: ok=%v err=%v", ok, err)
		}
		// After the visibility timeout it reappears, redelivered.
		p.Sleep(visibility)
		again, ok, err := cl.GetMessage(p, "qq0", visibility)
		if err != nil || !ok {
			t.Errorf("redelivery get: ok=%v err=%v", ok, err)
			return
		}
		if again.ID != msg.ID {
			t.Errorf("different message redelivered: %s != %s", again.ID, msg.ID)
		}
		if again.DequeueCount != 2 {
			t.Errorf("redelivered dequeue count = %d, want 2", again.DequeueCount)
		}
		// Fault cleared: the delete commits and the queue drains.
		c.SetFaults(nil)
		if err := cl.DeleteMessage(p, "qq0", again.ID, again.PopReceipt); err != nil {
			t.Errorf("clean delete: %v", err)
		}
		p.Sleep(visibility)
		if _, ok, _ := cl.GetMessage(p, "qq0", visibility); ok {
			t.Error("message survived a committed delete")
		}
	})
	env.Run()
	if got := c.Stats().FaultTimeouts; got != 1 {
		t.Errorf("timeout count = %d, want 1", got)
	}
}

// TestMutationFaultsDoNotCommit verifies the other half of the fault
// placement contract: a faulted mutation must never reach the engine, so
// a PutMessage that times out leaves the queue empty.
func TestMutationFaultsDoNotCommit(t *testing.T) {
	env := sim.NewEnv(7)
	c := New(env, model.Default())
	cl := c.NewClient("vm0", model.Small)
	env.Go("main", func(p *sim.Proc) {
		if _, err := cl.CreateQueueIfNotExists(p, "qq0"); err != nil {
			t.Error(err)
			return
		}
		for _, kind := range []faults.Kind{faults.Timeout, faults.Internal, faults.Reset} {
			c.SetFaults(faults.NewInjector(faults.Plan{
				Seed:  7,
				Rules: []faults.Rule{{Service: "queue", Op: "PutMessage", Kind: kind, Rate: 1}},
			}))
			if _, err := cl.PutMessage(p, "qq0", payload.Zero(1024)); err == nil {
				t.Errorf("%v-faulted put succeeded", kind)
			} else if !storecommon.IsRetriable(err) {
				t.Errorf("%v-faulted put returned non-retriable %v", kind, err)
			}
			c.SetFaults(nil)
			if n, err := cl.GetMessageCount(p, "qq0"); err != nil || n != 0 {
				t.Errorf("after %v fault: count=%d err=%v (mutation committed?)", kind, n, err)
			}
		}
	})
	env.Run()
}

// TestRetryBounded: against a fault that never clears, a request stops
// retrying at its policy's MaxAttempts and returns the last error rather
// than spinning forever.
func TestRetryBounded(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, model.Default())
	c.SetFaults(faults.NewInjector(faults.Plan{
		Seed:  1,
		Rules: []faults.Rule{{Kind: faults.Internal, Rate: 1}},
	}))
	cl := c.NewClient("vm0", model.Small)
	cl.SetRetryPolicy(retry.Policy{
		MaxAttempts: 4,
		BaseDelay:   100 * time.Millisecond,
		Multiplier:  2,
		Classify:    storecommon.IsRetriable,
	})
	env.Go("main", func(p *sim.Proc) {
		_, err := cl.CreateQueueIfNotExists(p, "qq0")
		if storecommon.CodeOf(err) != storecommon.CodeInternalError {
			t.Errorf("last error = %v", err)
		}
	})
	env.Run()
	if calls, retries := c.Stats().FaultInternals, c.Stats().Retries; calls != 4 || retries != 3 {
		t.Errorf("calls=%d retries=%d, want 4/3", calls, retries)
	}
}

// TestRetryDeadline: a policy deadline cuts the retry loop even when
// attempts remain.
func TestRetryDeadline(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, model.Default())
	c.SetFaults(faults.NewInjector(faults.Plan{
		Seed:  1,
		Rules: []faults.Rule{{Kind: faults.Timeout, Rate: 1}},
		// Every attempt is lost and waits this long for its answer.
		Timeout: 10 * time.Millisecond,
	}))
	cl := c.NewClient("vm0", model.Small)
	cl.SetRetryPolicy(retry.Policy{
		MaxAttempts: 100,
		BaseDelay:   time.Second,
		Multiplier:  1,
		Deadline:    1500 * time.Millisecond,
		Classify:    func(error) bool { return true },
	})
	env.Go("main", func(p *sim.Proc) {
		_, err := cl.CreateQueueIfNotExists(p, "qq0")
		if storecommon.CodeOf(err) != storecommon.CodeOperationTimedOut {
			t.Errorf("err = %v", err)
		}
	})
	env.Run()
	// Attempts finish at elapsed ≈ 0.01s, 1.02s, 2.03s; the first two pass
	// the 1.5s deadline check, the third fails it.
	if calls := c.Stats().FaultTimeouts; calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

// TestResetAccountsPartialBytes: a connection cut mid-upload still charges
// the transferred prefix to the ingress counters.
func TestResetAccountsPartialBytes(t *testing.T) {
	env := sim.NewEnv(3)
	c := New(env, model.Default())
	c.SetFaults(faults.NewInjector(faults.Plan{
		Seed:  3,
		Rules: []faults.Rule{{Service: "queue", Op: "PutMessage", Kind: faults.Reset, Rate: 1}},
	}))
	cl := c.NewClient("vm0", model.Small)
	size := int64(32 * storecommon.KB)
	env.Go("main", func(p *sim.Proc) {
		if _, err := cl.CreateQueueIfNotExists(p, "qq0"); err != nil {
			t.Error(err)
			return
		}
		_, err := cl.PutMessage(p, "qq0", payload.Zero(size))
		if storecommon.CodeOf(err) != storecommon.CodeConnectionReset {
			t.Errorf("err = %v", err)
		}
	})
	env.Run()
	// CreateQueueIfNotExists charges its reqHeader; the faulted put must
	// add a strict fraction of its wire size on top.
	in := c.Stats().BytesIn - reqHeader
	if in <= 0 || in >= size+reqHeader {
		t.Errorf("partial upload charged %d bytes, want in (0, %d)", in, size+reqHeader)
	}
	if got := c.Stats().FaultResets; got != 1 {
		t.Errorf("reset count = %d", got)
	}
}
