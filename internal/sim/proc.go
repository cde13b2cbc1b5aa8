//go:build go1.23

// This is the one file that imports package iter. go.mod says go 1.22 (it
// has to match bench/go.mod); the constraint above raises this file's
// language version so vet accepts the import. A toolchain older than 1.23
// leaves the file out and stops at "undefined: Proc".

package sim

import (
	"fmt"
	"iter"
	"time"
)

// Proc is a cooperative simulation process. A Proc's methods that can block
// (Sleep, Join, and the blocking methods of Resource, Store, Signal,
// WaitGroup that take a *Proc) must only be called from the process's own
// coroutine while it is the running process.
type Proc struct {
	env   *Env
	name  string
	next  func() (struct{}, bool) // kernel side: run the process until it parks or ends
	yield func(struct{}) bool     // process side: park, handing control back to the kernel
	done  *Signal
	ended bool
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Env returns the owning environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Rand returns the environment's PRNG.
func (p *Proc) Rand() *Rand { return p.env.rng }

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (yield to same-time events scheduled earlier).
func (p *Proc) Sleep(d time.Duration) {
	p.env.mustBeRunning(p, "Sleep")
	if d < 0 {
		d = 0
	}
	p.env.wake(p.env.now+d, p)
	p.park()
}

// Yield gives same-instant events scheduled before now a chance to run,
// then resumes. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// Join blocks until q has finished. Joining an already-finished process
// returns immediately.
func (p *Proc) Join(q *Proc) {
	q.done.Wait(p)
}

// Ended reports whether the process function has returned.
func (p *Proc) Ended() bool { return p.ended }

// park transfers control back to the kernel without scheduling a wake-up.
// Something else (a resource grant, a signal, a timer event captured
// before parking) must re-activate the process.
func (p *Proc) park() {
	p.yield(struct{}{})
}

// startProc turns fn into a coroutine and runs it until its first park.
// Called in kernel context. The closure below is the only allocation on
// the process path, and it is paid once per process, not per event.
func (e *Env) startProc(p *Proc, fn func(*Proc)) {
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil {
				e.pendingPanic = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
			}
			p.ended = true
			e.nLive--
			p.done.Fire()
		}()
		fn(p)
	})
	e.activate(p)
}

// activate hands control to p and returns when p parks (or ends). Called
// in kernel context only. A panic that escaped the process is re-raised
// here, in the caller of Run, where it can be recovered; a runtime.Goexit
// inside the process (t.FailNow, say) is propagated by iter.Pull and ends
// the goroutine that called Run.
func (e *Env) activate(p *Proc) {
	prev := e.cur
	e.cur = p
	e.switches++
	p.next()
	e.cur = prev
	if e.pendingPanic != nil {
		r := e.pendingPanic
		e.pendingPanic = nil
		panic(r)
	}
}
