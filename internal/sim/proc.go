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
// (Sleep, Exec, and the blocking methods of Resource, Store and Signal that
// take a *Proc) must only be called from the process's own coroutine while
// it is the running process; a process started with GoCont has none, and
// runs only the program its Call steps give it.
type Proc struct {
	env   *Env
	name  string
	id    int32                   // the process's slot in env.who, which its events name
	next  func() (struct{}, bool) // kernel side: run the process until it parks or ends; nil without a coroutine
	yield func(struct{}) bool     // process side: park, handing control back to the kernel
	stop  func()                  // kernel side: make the parked yield return false (Env.Close)
	start func(*Proc)             // GoAt's function, until its start event turns it into a coroutine
	ended bool

	// The program handed to Exec; prog[pc:plen] is still to run.
	prog  [MaxSteps]instr
	conts [MaxSteps]Cont   // by slot, a Call's Cont (load)
	ctrs  [MaxSteps]*int64 // by slot, an Add's counter
	pc    int
	plen  int
	// callPanic is what a Call step's Resume panicked with in kernel
	// context, for Exec to re-raise on the process's own stack.
	callPanic any
}

// Name returns the process name.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Rand returns the environment's PRNG.
func (p *Proc) Rand() *Rand { return p.env.rng }

// Sleep suspends the process for d of virtual time. Negative durations are
// treated as zero (yield to same-time events scheduled earlier).
func (p *Proc) Sleep(d time.Duration) {
	p.env.mustBeRunning(p, "Sleep")
	p.env.wake(p.env.now+max(d, 0), p)
	p.park()
}

// MaxSteps is the longest program Exec accepts.
const MaxSteps = 8

// Step is one instruction of a program for Proc.Exec.
type Step struct {
	instr
	k   Cont   // stepCall
	ctr *int64 // stepAdd
}

// instr is a step as a Proc stores it: with no pointer, copying a program
// pays no write barrier while the GC marks (DESIGN.md §17).
type instr struct {
	kind stepKind
	ref  int32         // stepAcquire, stepRelease: the Resource's id in its Env
	d    time.Duration // stepSleep: how long; stepAdd: the addend
}

type stepKind uint8

const (
	stepSleep stepKind = iota
	stepAcquire
	stepRelease
	stepAdd
	stepCall
)

// Each constructor builds the step that stands for the call of its name.
// A Resource in a program must belong to the Env of the process that runs it.
func Sleep(d time.Duration) Step { return Step{instr: instr{kind: stepSleep, d: d}} }
func Acquire(r *Resource) Step   { return Step{instr: instr{kind: stepAcquire, ref: r.id}} }
func Release(r *Resource) Step   { return Step{instr: instr{kind: stepRelease, ref: r.id}} }

// Add stands for *ctr += n, for a count a checkpoint may read at any
// instant: it moves when the program gets there, not when the process next
// runs.
func Add(ctr *int64, n int64) Step {
	return Step{instr: instr{kind: stepAdd, d: time.Duration(n)}, ctr: ctr}
}

// Cont is the Go code of a Call step.
type Cont interface{ Resume(p *Proc) }

// Call stands for k.Resume(p), run at the instant the program reaches it.
// Resume must not block: Sleep, Exec, Acquire and every other blocking
// primitive panic inside it, whether the process or the kernel made the
// call. It may replace the rest of the program with Proc.Then, which is
// how a program decides where it goes next. A pointer-shaped k (a *T)
// makes the step without allocating.
func Call(k Cont) Step { return Step{instr: instr{kind: stepCall}, k: k} }

// Then replaces what is left of p's program with steps (at most MaxSteps).
// Only a Call step's Resume may call it, and only for its own process.
func (p *Proc) Then(steps ...Step) {
	if p.env.calling != p.id || p.ended {
		panic(fmt.Sprintf("sim: Then on process %q outside its Call step", p.name))
	}
	if len(steps) > MaxSteps {
		panic(fmt.Sprintf("sim: Then with %d steps (at most %d)", len(steps), MaxSteps))
	}
	p.load(steps)
}

// load makes steps (at most MaxSteps) p's program: the side arrays are
// written only for a Call's Cont and an Add's counter.
func (p *Proc) load(steps []Step) {
	for i := range steps {
		s := &steps[i]
		p.prog[i] = s.instr
		switch s.kind {
		case stepCall:
			p.conts[i] = s.k
		case stepAdd:
			p.ctrs[i] = s.ctr
		}
	}
	p.pc, p.plen = 0, len(steps)
}

// Exec runs a program of at most MaxSteps steps, and of whatever its Call
// steps swap in with Then, and returns when the last one is done. Event for
// event it is the same calls made one after the other — each step executes
// the statements of the call it stands for, at the same instant, taking the
// same sequence numbers, so neither the event order nor any Resource's
// Stats nor Env.Save can tell — but after the first step that blocks it is
// the kernel that runs the rest, from its own loop as the process's
// wake-ups arrive (Env.step), and the coroutine is switched to once, at the
// end, not once per blocking step. The steps are copied into the Proc:
// nothing is allocated.
func (p *Proc) Exec(steps ...Step) {
	p.env.mustBeRunning(p, "Exec")
	if len(steps) > MaxSteps {
		panic(fmt.Sprintf("sim: Exec with %d steps (at most %d)", len(steps), MaxSteps))
	}
	p.load(steps)
	for p.pc < p.plen { // a second round only after advance handed a step back
		if p.env.advance(p) {
			p.park()
			if r := p.callPanic; r != nil {
				p.callPanic = nil
				panic(r)
			}
		}
	}
}

// advance runs p's program up to and including its next blocking step and
// reports whether there was one (p's wake-up is then scheduled, or owed by
// a Release). p calls it from Exec, the kernel for every later round. A
// Release about to panic is handed back to p: the kernel stops in front of
// it and reports "not blocked", the coroutine resumes and Exec's loop makes
// the step there, so the panic unwinds the process's own stack and comes
// out of Run as the plain call's does; a process with no coroutine makes
// it in stop. A Call that panics in the kernel ends the program the same
// way, with the panic carried over (Env.call).
func (e *Env) advance(p *Proc) bool {
	for p.pc < p.plen {
		i := p.pc
		s := p.prog[i]
		if s.kind == stepRelease && e.res[s.ref].inUse <= 0 && e.cur != p {
			return false
		}
		p.pc++
		switch s.kind {
		case stepSleep:
			e.wake(e.now+max(s.d, 0), p)
			return true
		case stepAcquire:
			if e.res[s.ref].acquire(p) {
				return true
			}
		case stepRelease:
			e.res[s.ref].Release()
		case stepAdd:
			*p.ctrs[i] += int64(s.d)
		case stepCall:
			if !e.call(p, p.conts[i]) {
				return false
			}
		}
	}
	return false
}

// call runs k.Resume(p) with no process running — e.cur is nil, so every
// blocking primitive panics — and e.calling set to p's slot, which is what
// Then checks; in kernel context it writes no pointer. In process context
// a panic unwinds the coroutine as any panic of the process does. In
// kernel context call recovers it, ends the program and reports false;
// Exec then re-raises it on the process's stack, so it leaves Run as
// "sim: process <name> panicked: ..." with the process ended.
func (e *Env) call(p *Proc, k Cont) (ok bool) {
	cur := e.cur
	e.calling = p.id
	if cur != nil {
		e.cur = nil
	}
	defer func() {
		e.calling = -1
		if cur != nil {
			e.cur = cur
		} else if r := recover(); r != nil {
			p.callPanic, p.pc, ok = r, p.plen, false
		}
	}()
	k.Resume(p)
	return true
}

// stop ends p, a process with no coroutine (GoCont), once advance has
// stopped short of a blocking step: its program has run dry, a Call has
// panicked, or a Release about to panic was handed back, which is made
// here. A panic leaves Run as a panic of a process with a coroutine does.
func (e *Env) stop(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("sim: process %q panicked: %v", p.name, r))
		}
	}()
	e.end(p)
	if r := p.callPanic; r != nil {
		panic(r)
	}
	if p.pc < p.plen {
		e.res[p.prog[p.pc].ref].Release()
	}
}

// end frees p's slot: nothing pending names an ended process.
func (e *Env) end(p *Proc) {
	p.ended = true
	e.nLive--
	e.who[p.id] = nil
	e.spare = append(e.spare, p.id)
}

// Yield gives same-instant events scheduled before now a chance to run,
// then resumes. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// park transfers control back to the kernel without scheduling a wake-up.
// Something else (a resource grant, a signal, a timer event captured
// before parking) must re-activate the process. If Env.Close ends the
// process instead, park unwinds its stack and never returns.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(unwound{})
	}
}

// unwound is what park panics with when Env.Close ends a parked process.
type unwound struct{}

// startProc turns fn into a coroutine and runs it until its first park.
// Called in kernel context. The closure below is the only allocation on
// the process path, and it is paid once per process, not per event.
func (e *Env) startProc(p *Proc, fn func(*Proc)) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != (unwound{}) {
				e.pendingPanic = fmt.Sprintf("sim: process %q panicked: %v", p.name, r)
			}
			e.end(p)
		}()
		fn(p)
	})
	e.activate(p)
}

// Close ends every process still parked on its coroutine, as a drained Run
// leaves one that waits for something nobody will do (a signal never
// fired, say). Its stack unwinds, deferred calls included, and its
// goroutine exits, so a dropped environment leaves nothing behind. Close
// does not return until they are gone, and the environment must not run
// again.
func (e *Env) Close() {
	for _, p := range e.who {
		if p != nil && p.stop != nil {
			p.stop()
		}
	}
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
