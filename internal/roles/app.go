package roles

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/fabric"
	"azurebench/internal/model"
	"azurebench/internal/payload"
)

// BagOfTasksConfig describes a Figure-3 application: a web role that
// submits tasks and monitors progress, and worker roles that drain the
// shared task pool.
type BagOfTasksConfig struct {
	Cloud    *cloud.Cloud
	Name     string
	Workers  int
	WorkerVM model.VMSize
	WebVM    model.VMSize

	// Tasks are the work items the web role submits.
	Tasks []payload.Payload
	// Visibility is the task claim duration (0 = 30 s default). A worker
	// that recycles mid-task loses its claim and the task reappears.
	Visibility time.Duration
	// Work processes one task on a worker; it may sleep (compute) and use
	// the storage client.
	Work func(ctx *fabric.Context, task Task) error
}

// BagOfTasksResult summarises a completed run.
type BagOfTasksResult struct {
	Completed      int
	Elapsed        time.Duration
	WorkerRestarts int
}

// queue names derived from the application name.
func (cfg *BagOfTasksConfig) taskQueue() string { return cfg.Name + "-tasks" }
func (cfg *BagOfTasksConfig) doneQueue() string { return cfg.Name + "-done" }
func (cfg *BagOfTasksConfig) stopQueue() string { return cfg.Name + "-stop" }

// RunBagOfTasks deploys the application, runs the simulation to
// completion, and reports the outcome. It must be called from outside the
// simulation (it drives env.Run itself).
//
// Termination uses a dedicated stop queue rather than an in-band sentinel
// on the task queue — the paper's recommendation, since queue storage does
// not guarantee FIFO and an in-band sentinel could overtake real tasks.
func RunBagOfTasks(cfg BagOfTasksConfig) (BagOfTasksResult, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.WorkerVM.Name == "" {
		cfg.WorkerVM = model.Small
	}
	if cfg.WebVM.Name == "" {
		cfg.WebVM = model.Small
	}
	env := cfg.Cloud.Env()
	start := env.Now()
	pool := NewTaskPool(cfg.taskQueue(), cfg.Visibility)
	indicator := NewIndicator(cfg.doneQueue())

	var runErr error
	fail := func(err error) {
		if runErr == nil && err != nil {
			runErr = err
		}
	}

	web := func(ctx *fabric.Context) {
		p, cl := ctx.Proc, ctx.Client
		if err := EnsureQueues(p, cl, cfg.taskQueue(), cfg.doneQueue(), cfg.stopQueue()); err != nil {
			fail(err)
			return
		}
		for _, body := range cfg.Tasks {
			if err := pool.Submit(p, cl, body); err != nil {
				fail(err)
				return
			}
		}
		if err := indicator.AwaitCount(p, cl, len(cfg.Tasks)); err != nil {
			fail(err)
			return
		}
		// All tasks accounted for: release the workers.
		for i := 0; i < cfg.Workers; i++ {
			if _, err := cl.PutMessage(p, cfg.stopQueue(), payload.String("stop")); err != nil {
				fail(err)
				return
			}
		}
	}

	worker := func(ctx *fabric.Context) {
		p, cl := ctx.Proc, ctx.Client
		if err := EnsureQueues(p, cl, cfg.taskQueue(), cfg.doneQueue(), cfg.stopQueue()); err != nil {
			fail(err)
			return
		}
		for {
			ctx.Checkpoint()
			task, ok, err := pool.TryNext(p, cl)
			if err != nil {
				fail(err)
				return
			}
			if ok {
				if err := cfg.Work(ctx, task); err != nil {
					fail(err)
					return
				}
				if err := pool.Complete(p, cl, task); err != nil {
					fail(err)
					return
				}
				if err := indicator.Signal(p, cl); err != nil {
					fail(err)
					return
				}
				continue
			}
			// Idle: check for the stop signal, then back off.
			if _, stop, err := cl.GetMessage(p, cfg.stopQueue(), time.Hour); err == nil && stop {
				return
			}
			p.Sleep(pool.pollInterval())
		}
	}

	d := fabric.Deploy(cfg.Cloud, cfg.Name,
		fabric.RoleConfig{Name: "web", VM: cfg.WebVM, Count: 1, Run: web},
		fabric.RoleConfig{Name: "worker", VM: cfg.WorkerVM, Count: cfg.Workers, Run: worker},
	)
	env.Run()

	res := BagOfTasksResult{Elapsed: env.Now() - start}
	for _, inst := range d.InstancesOf("worker") {
		res.WorkerRestarts += inst.Restarts()
	}
	if n, err := cfg.Cloud.Queue.ApproximateCount(cfg.doneQueue()); err == nil {
		res.Completed = n
	}
	if runErr != nil {
		return res, fmt.Errorf("%s: %w", cfg.Name, runErr)
	}
	return res, nil
}

func (tp *TaskPool) pollInterval() time.Duration {
	if tp.Poll > 0 {
		return tp.Poll
	}
	return DefaultPollInterval
}
