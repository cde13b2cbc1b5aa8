package scenario

import (
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/model"
	"azurebench/internal/sim"
)

// The workload driver is written once against two seams. A Runtime is
// where its processes run and what time means; a Store is one client's
// connection to the storage services. The simulated pair below wraps
// *sim.Env and *cloud.Client; the live pair (internal/liverun: goroutines,
// the wall clock, *sdk.Client) lives outside this package because nothing
// here may read the wall clock.

// Runtime is the substrate's clock and process model.
type Runtime interface {
	// Now is the time since the run began.
	Now() time.Duration
	// Go starts a named process whose program begins with k.Resume.
	Go(name string, k Cont)
	// Wait returns once every started process has finished.
	Wait()
}

// Cont is a stretch of a process's program: Go code that never blocks and,
// as its last act, says where the process goes next — After a wait, or into
// a Store request — or says nothing, which ends the process. The driver is
// written as Conts so that on the simulator a process is one with no
// coroutine (sim.Env.GoCont), which the kernel runs from event to event
// without a switch.
type Cont interface{ Resume(p Proc) }

// Proc is a running process's handle on its Runtime, as its Cont sees it.
type Proc interface {
	Now() time.Duration
	// After has the process go on with k once d has passed.
	After(d time.Duration, k Cont)
}

// Store is one workload client's connection to the storage services. Start
// issues op, one of the cloud.Client operations the DSL's vocabulary and
// setup use, as the last act of p's Cont, and has p go on with k once it is
// answered, at the instant the blocking call would have returned, with the
// answer in op. Each request retries itself under the scenario retry
// discipline (RetryPolicy). Errors carry storecommon codes in both modes,
// so the driver classifies NotFound, Conflict and PreconditionFailed
// outcomes without knowing the substrate; a create succeeds when the object
// already exists.
type Store interface {
	Start(p Proc, op *cloud.Op, k Cont)
}

type simRuntime struct{ env *sim.Env }

func (r simRuntime) Now() time.Duration { return r.env.Now() }
func (r simRuntime) Wait()              { r.env.Run() }
func (r simRuntime) Go(name string, k Cont) {
	p := &simProc{k: k}
	p.Proc = r.env.GoCont(name, p)
}

// simProc is a driver process on the kernel, a process with no coroutine:
// its Call steps run the Cont it goes on with.
type simProc struct {
	*sim.Proc
	k Cont
}

func (p *simProc) Resume(*sim.Proc) { p.k.Resume(p) }

func (p *simProc) After(d time.Duration, k Cont) {
	p.k = k
	p.Then(sim.Sleep(d), sim.Call(p))
}

// simDial returns the simulated substrate's client factory: every workload
// client is its own Small VM (the paper's worker role) with its own NIC.
func simDial(c *cloud.Cloud) func(name string) Store {
	return func(name string) Store {
		cl := c.NewClient(name, model.Small)
		cl.SetRetryPolicy(RetryPolicy())
		return simStore{cl}
	}
}

// simStore is a *cloud.Client, whose requests the kernel carries on the
// program of the process that starts them.
type simStore struct{ cl *cloud.Client }

func (s simStore) Start(p Proc, op *cloud.Op, k Cont) {
	sp := p.(*simProc)
	sp.k = k
	s.cl.Start(sp.Proc, op, sp)
}
