package fabric

import (
	"testing"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
)

func newCloud() (*sim.Env, *cloud.Cloud) {
	env := sim.NewEnv(1)
	return env, cloud.New(env, model.Default())
}

func TestDeployStartsAllInstances(t *testing.T) {
	env, c := newCloud()
	started := map[string]bool{}
	d := Deploy(c, "app",
		RoleConfig{Name: "web", VM: model.Small, Count: 1, Run: func(ctx *Context) {
			started[ctx.Instance.Name()] = true
		}},
		RoleConfig{Name: "worker", VM: model.Medium, Count: 3, Run: func(ctx *Context) {
			started[ctx.Instance.Name()] = true
		}},
	)
	env.Run()
	if len(started) != 4 {
		t.Fatalf("started %d instances: %v", len(started), started)
	}
	if len(d.Instances()) != 4 {
		t.Fatalf("deployment lists %d instances", len(d.Instances()))
	}
	if got := d.InstancesOf("worker"); len(got) != 3 {
		t.Fatalf("InstancesOf(worker) = %d", len(got))
	}
	for _, inst := range d.InstancesOf("worker") {
		if inst.vm.Name != "Medium" {
			t.Fatalf("worker instance misconfigured: %+v", inst)
		}
	}
}

func TestRolesUseStorage(t *testing.T) {
	env, c := newCloud()
	Deploy(c, "app", RoleConfig{Name: "w", VM: model.Small, Count: 2,
		Run: func(ctx *Context) {
			p, cl := ctx.Proc, ctx.Client
			if _, err := cl.CreateQueueIfNotExists(p, "shared"); err != nil {
				t.Error(err)
				return
			}
			if _, err := cl.PutMessage(p, "shared", payload.String(ctx.Instance.Name())); err != nil {
				t.Error(err)
			}
		}})
	env.Run()
	if n, _ := c.Queue.ApproximateCount("shared"); n != 2 {
		t.Fatalf("messages = %d, want 2", n)
	}
}

func TestRecycleRestartsEntryPoint(t *testing.T) {
	env, c := newCloud()
	runs := 0
	var d *Deployment
	d = Deploy(c, "app", RoleConfig{Name: "w", VM: model.Small, Count: 1,
		Run: func(ctx *Context) {
			runs++
			if runs == 1 {
				// Simulate the fabric controller recycling us mid-run.
				ctx.Instance.RequestSelfRecycle()
				ctx.Checkpoint() // aborts here
				t.Error("checkpoint did not abort after recycle request")
			}
			// Second run completes.
		}})
	env.Run()
	if runs != 2 {
		t.Fatalf("entry point ran %d times, want 2", runs)
	}
	inst := d.Instances()[0]
	if inst.Restarts() != 1 {
		t.Fatalf("restarts = %d, want 1", inst.Restarts())
	}
	// The reboot delay must have elapsed.
	if env.Now() < RebootDelay {
		t.Fatalf("clock = %v, want >= %v", env.Now(), RebootDelay)
	}
}

func TestCheckpointWithoutRecycleIsNoop(t *testing.T) {
	env, c := newCloud()
	d := Deploy(c, "app", RoleConfig{Name: "w", VM: model.Small, Count: 1,
		Run: func(ctx *Context) {
			for i := 0; i < 5; i++ {
				ctx.Checkpoint()
				ctx.Proc.Sleep(time.Second)
			}
		}})
	env.Run()
	if d.Instances()[0].Restarts() != 0 {
		t.Fatal("spurious restarts")
	}
}

func TestNonRecyclePanicPropagates(t *testing.T) {
	env, c := newCloud()
	defer func() {
		if recover() == nil {
			t.Fatal("role panic did not propagate")
		}
	}()
	Deploy(c, "app", RoleConfig{Name: "w", VM: model.Small, Count: 1,
		Run: func(ctx *Context) { panic("boom") }})
	env.Run()
}
