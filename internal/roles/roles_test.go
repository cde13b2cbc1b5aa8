package roles

import (
	"fmt"
	"testing"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/fabric"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
)

func newCloud() (*sim.Env, *cloud.Cloud) {
	env := sim.NewEnv(1)
	return env, cloud.New(env, model.Default())
}

func TestBarrierSynchronizesWorkers(t *testing.T) {
	env, c := newCloud()
	const workers = 6
	setup := c.NewClient("setup", model.Small)
	env.Go("setup", func(p *sim.Proc) {
		if err := EnsureQueues(p, setup, "sync-q"); err != nil {
			t.Error(err)
		}
	})
	env.Run()

	var crossed []time.Duration
	var slowest time.Duration
	for w := 0; w < workers; w++ {
		w := w
		cl := c.NewClient(fmt.Sprintf("vm%d", w), model.Small)
		env.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			b := NewBarrier("sync-q", workers)
			// Straggler pattern: worker w arrives w minutes late.
			arrive := time.Duration(w) * time.Minute
			p.Sleep(arrive)
			if arrive > slowest {
				slowest = arrive
			}
			if err := b.Wait(p, cl); err != nil {
				t.Error(err)
				return
			}
			crossed = append(crossed, p.Now())
		})
	}
	env.Run()
	if len(crossed) != workers {
		t.Fatalf("%d workers crossed", len(crossed))
	}
	for _, at := range crossed {
		if at < slowest {
			t.Fatalf("a worker crossed at %v, before the slowest arrived at %v", at, slowest)
		}
	}
}

func TestBarrierMultiplePhases(t *testing.T) {
	// The Algorithm 2 subtlety: phase 2 must not be confused by phase 1's
	// residual messages.
	env, c := newCloud()
	const workers, phases = 4, 3
	setup := c.NewClient("setup", model.Small)
	env.Go("setup", func(p *sim.Proc) {
		if err := EnsureQueues(p, setup, "sync-q"); err != nil {
			t.Error(err)
		}
	})
	env.Run()
	phaseDone := make([]int, phases+1)
	for w := 0; w < workers; w++ {
		w := w
		cl := c.NewClient(fmt.Sprintf("vm%d", w), model.Small)
		env.Go(fmt.Sprintf("w%d", w), func(p *sim.Proc) {
			b := NewBarrier("sync-q", workers)
			for phase := 1; phase <= phases; phase++ {
				p.Sleep(time.Duration(w*3) * time.Second) // stagger
				if err := b.Wait(p, cl); err != nil {
					t.Error(err)
					return
				}
				// No worker may be more than one phase behind when we pass.
				phaseDone[phase]++
				for q := 1; q < phase; q++ {
					if phaseDone[q] != workers {
						t.Errorf("crossed phase %d while phase %d incomplete (%d/%d)",
							phase, q, phaseDone[q], workers)
					}
				}
			}
			if b.phase != phases {
				t.Errorf("phase counter = %d", b.phase)
			}
		})
	}
	env.Run()
	if n, _ := c.Queue.ApproximateCount("sync-q"); n != workers*phases {
		t.Fatalf("barrier queue holds %d messages, want %d", n, workers*phases)
	}
}

func TestTaskPoolClaimCompleteLifecycle(t *testing.T) {
	env, c := newCloud()
	cl := c.NewClient("vm0", model.Small)
	env.Go("main", func(p *sim.Proc) {
		if err := EnsureQueues(p, cl, "pool-q"); err != nil {
			t.Error(err)
			return
		}
		tp := NewTaskPool("pool-q", time.Minute)
		if err := tp.Submit(p, cl, payload.String("job1")); err != nil {
			t.Error(err)
			return
		}
		task, ok, err := tp.TryNext(p, cl)
		if err != nil || !ok {
			t.Errorf("TryNext = %v, %v", ok, err)
			return
		}
		if string(task.Body.Materialize()) != "job1" {
			t.Error("task body mismatch")
		}
		// While claimed, no other worker sees it.
		if _, ok, _ := tp.TryNext(p, cl); ok {
			t.Error("claimed task visible to second claimer")
		}
		if err := tp.Complete(p, cl, task); err != nil {
			t.Error(err)
		}
		if _, ok, _ := tp.TryNext(p, cl); ok {
			t.Error("completed task reappeared")
		}
	})
	env.Run()
}

func TestTaskReappearsAfterClaimExpiry(t *testing.T) {
	env, c := newCloud()
	cl := c.NewClient("vm0", model.Small)
	env.Go("main", func(p *sim.Proc) {
		if err := EnsureQueues(p, cl, "pool-q"); err != nil {
			t.Error(err)
			return
		}
		tp := NewTaskPool("pool-q", 5*time.Second)
		if err := tp.Submit(p, cl, payload.String("job")); err != nil {
			t.Error(err)
			return
		}
		if _, ok, err := tp.TryNext(p, cl); err != nil || !ok {
			t.Errorf("claim failed: %v %v", ok, err)
			return
		}
		// Simulated worker death: never Complete. After the visibility
		// timeout the task is claimable again.
		p.Sleep(6 * time.Second)
		task, ok, err := tp.TryNext(p, cl)
		if err != nil || !ok {
			t.Errorf("task did not reappear: %v %v", ok, err)
			return
		}
		if err := tp.Complete(p, cl, task); err != nil {
			t.Error(err)
		}
	})
	env.Run()
}

func TestIndicatorCountsCompletions(t *testing.T) {
	env, c := newCloud()
	cl := c.NewClient("vm0", model.Small)
	env.Go("main", func(p *sim.Proc) {
		if err := EnsureQueues(p, cl, "done-q"); err != nil {
			t.Error(err)
			return
		}
		in := NewIndicator("done-q")
		for i := 0; i < 5; i++ {
			if err := in.Signal(p, cl); err != nil {
				t.Error(err)
				return
			}
		}
		if n, err := in.Count(p, cl); err != nil || n != 5 {
			t.Errorf("count = %d, %v", n, err)
		}
		if err := in.AwaitCount(p, cl, 5); err != nil {
			t.Error(err)
		}
	})
	env.Run()
}

func TestRunBagOfTasksCompletesAllWork(t *testing.T) {
	env, c := newCloud()
	var tasks []payload.Payload
	const n = 40
	for i := 0; i < n; i++ {
		tasks = append(tasks, payload.String(fmt.Sprintf("task-%02d", i)))
	}
	processed := map[string]int{}
	res, err := RunBagOfTasks(BagOfTasksConfig{
		Cloud:      c,
		Name:       "bot",
		Workers:    4,
		Tasks:      tasks,
		Visibility: 10 * time.Minute,
		Work: func(ctx *fabric.Context, task Task) error {
			ctx.Proc.Sleep(3 * time.Second) // simulated compute
			processed[string(task.Body.Materialize())]++
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != n {
		t.Fatalf("completed = %d, want %d", res.Completed, n)
	}
	if len(processed) != n {
		t.Fatalf("distinct tasks processed = %d, want %d", len(processed), n)
	}
	for body, times := range processed {
		if times != 1 {
			t.Fatalf("task %q processed %d times", body, times)
		}
	}
	if env.Live() != 0 {
		t.Fatalf("%d processes still live (workers not released?)", env.Live())
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time recorded")
	}
}

func TestRunBagOfTasksSurvivesWorkerRecycle(t *testing.T) {
	env, c := newCloud()
	var tasks []payload.Payload
	const n = 12
	for i := 0; i < n; i++ {
		tasks = append(tasks, payload.String(fmt.Sprintf("t%d", i)))
	}
	// Kill the first worker once, mid-stream, via the fabric controller.
	killed := false
	res, err := RunBagOfTasks(BagOfTasksConfig{
		Cloud:      c,
		Name:       "faulty",
		Workers:    3,
		Tasks:      tasks,
		Visibility: 30 * time.Second,
		Work: func(ctx *fabric.Context, task Task) error {
			if !killed && ctx.Instance.ID() == 0 {
				killed = true
				// Die holding the claim: the entry point aborts here and
				// the task must reappear for someone else.
				ctx.Instance.RequestSelfRecycle()
				ctx.Checkpoint()
			}
			ctx.Proc.Sleep(2 * time.Second)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !killed {
		t.Fatal("fault was never injected")
	}
	if res.WorkerRestarts != 1 {
		t.Fatalf("restarts = %d, want 1", res.WorkerRestarts)
	}
	if res.Completed < n {
		t.Fatalf("completed = %d, want >= %d (the dropped task must be redone)", res.Completed, n)
	}
	_ = env
}
