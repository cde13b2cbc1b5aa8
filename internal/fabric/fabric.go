// Package fabric models the Windows Azure compute fabric: deployments of
// web-role and worker-role instances on sized VMs (paper Table I), each
// with its own storage client (and NIC), plus the fabric controller's
// instance-recycle behaviour used for failure-injection tests — the
// robustness property the paper attributes to queue storage ("robust fault
// tolerance through its Queue storage mechanism") depends on tasks
// surviving a worker recycle.
package fabric

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/model"
	"azurebench/internal/sim"
)

// RebootDelay is the simulated time to recycle a role instance.
const RebootDelay = 15 * time.Second

// Context is handed to a role's entry point.
type Context struct {
	Proc     *sim.Proc
	Client   *cloud.Client
	Instance *Instance
}

// Checkpoint gives the fabric a chance to recycle the instance. Role code
// should call it at convenient restart boundaries (top of the task loop);
// if a recycle was requested the current run aborts and the entry point is
// invoked again after RebootDelay.
func (c *Context) Checkpoint() {
	if c.Instance.recycleRequested {
		c.Instance.recycleRequested = false
		panic(recycleSignal{})
	}
}

type recycleSignal struct{}

// Instance is one role VM.
type Instance struct {
	name string
	vm   model.VMSize
	id   int

	recycleRequested bool
	restarts         int
	readyAt          time.Duration
}

// ReadyAt returns the virtual time the instance finished provisioning.
func (i *Instance) ReadyAt() time.Duration { return i.readyAt }

// Name returns the instance name (e.g. "worker.3").
func (i *Instance) Name() string { return i.name }

// ID returns the instance index within its role.
func (i *Instance) ID() int { return i.id }

// Restarts returns how many times the instance has been recycled.
func (i *Instance) Restarts() int { return i.restarts }

// RequestSelfRecycle marks the instance for recycling at its next
// Checkpoint (failure injection from within role code, e.g. to emulate a
// crash at a specific point in a task).
func (i *Instance) RequestSelfRecycle() { i.recycleRequested = true }

// RoleConfig describes one role of a deployment.
type RoleConfig struct {
	Name  string
	VM    model.VMSize
	Count int
	// Run is the role entry point. It is re-invoked after a recycle.
	Run func(ctx *Context)
}

// Deployment is a running set of role instances against one cloud.
type Deployment struct {
	env       *sim.Env
	cloud     *cloud.Cloud
	name      string
	instances []*Instance
}

// DeployOpts tunes deployment behaviour. The zero value starts every
// instance immediately (the default for benchmarks, where provisioning is
// out of scope).
type DeployOpts struct {
	// BootBase + U(0, BootJitter) of provisioning time per instance
	// before its entry point runs — the paper's future-work "resource
	// provisioning times".
	BootBase   time.Duration
	BootJitter time.Duration
	// PlacementDelay serialises instance placement at the fabric
	// controller: instance i starts provisioning at i × PlacementDelay.
	PlacementDelay time.Duration
}

// Deploy starts all configured role instances at the current virtual time
// and returns the deployment handle.
func Deploy(c *cloud.Cloud, name string, roles ...RoleConfig) *Deployment {
	return DeployWithOptions(c, name, DeployOpts{}, roles...)
}

// DeployWithOptions deploys with explicit provisioning behaviour.
func DeployWithOptions(c *cloud.Cloud, name string, opts DeployOpts, roles ...RoleConfig) *Deployment {
	d := &Deployment{env: c.Env(), cloud: c, name: name}
	slot := 0
	for _, role := range roles {
		if role.Count < 1 {
			role.Count = 1
		}
		for i := 0; i < role.Count; i++ {
			inst := &Instance{
				name: fmt.Sprintf("%s.%d", role.Name, i),
				vm:   role.VM,
				id:   i,
			}
			d.instances = append(d.instances, inst)
			boot := opts.BootBase + time.Duration(slot)*opts.PlacementDelay
			if opts.BootJitter > 0 {
				boot += time.Duration(d.env.Rand().Int63n(int64(opts.BootJitter)))
			}
			d.start(inst, role.Run, boot)
			slot++
		}
	}
	return d
}

func (d *Deployment) start(inst *Instance, run func(ctx *Context), boot time.Duration) {
	d.env.Go(d.name+"/"+inst.name, func(p *sim.Proc) {
		if boot > 0 {
			p.Sleep(boot)
		}
		inst.readyAt = p.Now()
		client := d.cloud.NewClient(inst.name, inst.vm)
		ctx := &Context{Proc: p, Client: client, Instance: inst}
		for {
			if runRole(run, ctx) {
				return
			}
			inst.restarts++
			p.Sleep(RebootDelay)
		}
	})
}

// runRole invokes the entry point, converting a recycle panic into a
// restart request. It reports whether the role finished normally.
func runRole(run func(ctx *Context), ctx *Context) (finished bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(recycleSignal); ok {
				finished = false
				return
			}
			panic(r)
		}
	}()
	run(ctx)
	return true
}

// Instances returns all instances of the deployment.
func (d *Deployment) Instances() []*Instance { return d.instances }

// InstancesOf returns the instances whose name has the given role prefix.
func (d *Deployment) InstancesOf(role string) []*Instance {
	var out []*Instance
	for _, inst := range d.instances {
		if n := len(role); len(inst.name) > n && inst.name[:n] == role && inst.name[n] == '.' {
			out = append(out, inst)
		}
	}
	return out
}
