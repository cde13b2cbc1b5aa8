package sim

import (
	"fmt"
	"time"
)

// Env is a simulation environment: a virtual clock plus a queue of
// pending events. Create one with NewEnv, start processes with Go, then
// call Run (or RunUntil). Env is not safe for concurrent use from outside
// the simulation; all interaction during a run must happen from simulation
// processes.
type Env struct {
	now     time.Duration
	seq     uint64
	events  eventQueue
	cur     *Proc // currently running process, nil in kernel context
	calling int32 // slot of the process whose Call step is running, -1 outside one
	rng     *Rand
	nLive   int // processes started and not yet finished
	nSpawn  int // total processes ever started (used for default names)
	fired   uint64

	// An event names a live process by its slot in who (spare slots are
	// reused) or, as who -1, an OnTime hook by seq. Programs name res by id.
	who   []*Proc
	spare []int32
	hooks map[uint64]func()
	res   []*Resource
	// Self-telemetry (see Telemetry); not part of Save.
	switches    uint64
	peakPending int

	pendingPanic any // panic value escaping a process, re-raised in kernel context
}

// NewEnv returns a fresh environment with the clock at zero. The seed feeds
// the environment's PRNG (Env.Rand); the simulation itself is deterministic
// regardless of seed.
func NewEnv(seed int64) *Env {
	return &Env{rng: NewRand(seed), calling: -1, hooks: map[uint64]func(){}}
}

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Rand returns the environment's deterministic PRNG.
func (e *Env) Rand() *Rand { return e.rng }

// Events returns the number of events fired so far.
func (e *Env) Events() uint64 { return e.fired }

// Telemetry reports what the kernel has done so far: events fired (the
// same count as Events), process switches (each hand-over of control from
// the kernel to a process and back) and the most events that have been
// pending at once (the reports' "peak heap"). The counts depend only on the
// simulated program, never on the machine, and are not part of Save.
func (e *Env) Telemetry() (events, switches uint64, peakPending int) {
	return e.fired, e.switches, e.peakPending
}

// Live returns the number of processes that have been started and have not
// yet returned.
func (e *Env) Live() int { return e.nLive }

// Pending returns the number of scheduled events that have not fired yet.
// Seen from a running process, zero means nothing else will ever happen:
// every other live process is parked on something only an event could
// trigger.
func (e *Env) Pending() int { return e.events.n }

// wake enqueues the re-activation of p at time at. This is what every
// blocking primitive's wake-up side calls.
func (e *Env) wake(at time.Duration, p *Proc) {
	e.push(event{at: at, who: p.id})
}

func (e *Env) push(ev event) {
	if ev.at < e.now {
		panic(fmt.Sprintf("sim: scheduling event in the past (at=%v now=%v)", ev.at, e.now))
	}
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
	e.peakPending = max(e.peakPending, e.events.n)
}

// Go starts a new process running fn at the current virtual time. If name
// is empty a sequential name is assigned. Go may be called before Run or
// from a running process.
func (e *Env) Go(name string, fn func(*Proc)) *Proc {
	return e.GoAt(e.now, name, fn)
}

// GoAt starts a new process running fn at virtual time at (which must not
// be in the past).
func (e *Env) GoAt(at time.Duration, name string, fn func(*Proc)) *Proc {
	p := e.newProc(name)
	p.start = fn
	e.wake(at, p)
	return p
}

// GoCont starts a process with no coroutine at the current virtual time.
// Its program is Call(k), which the kernel runs as it runs the rest of an
// Exec'd program, and it ends when its program runs dry: a loop re-arms
// itself from its Call with Then(Sleep(think), Call(k)). Every blocking
// primitive panics on it, as inside any Call step. Its start takes one
// event, as Go's does, and it is never switched to.
func (e *Env) GoCont(name string, k Cont) *Proc {
	p := e.newProc(name)
	p.load([]Step{Call(k)})
	e.wake(e.now, p)
	return p
}

func (e *Env) newProc(name string) *Proc {
	e.nSpawn++
	if name == "" {
		name = fmt.Sprintf("proc-%d", e.nSpawn)
	}
	e.nLive++
	p := &Proc{env: e, name: name, id: int32(len(e.who))}
	if n := len(e.spare); n > 0 {
		p.id, e.spare = e.spare[n-1], e.spare[:n-1]
		e.who[p.id] = p
	} else {
		e.who = append(e.who, p)
	}
	return p
}

// Run executes events until none is pending, then returns the final
// virtual time. Processes that are parked forever (e.g. waiting on a signal
// nobody fires) do not keep Run alive; Run returns with them still parked.
func (e *Env) Run() time.Duration {
	for e.events.n > 0 {
		e.step()
	}
	return e.now
}

// RunUntil executes events with timestamps <= t, then sets the clock to t
// and returns. Pending later events remain queued; a subsequent Run or
// RunUntil continues the simulation.
func (e *Env) RunUntil(t time.Duration) time.Duration {
	for e.events.n > 0 && e.events.minAt() <= t {
		e.step()
	}
	if e.now < t {
		e.now = t
	}
	return e.now
}

func (e *Env) step() {
	ev := e.events.pop()
	e.now = ev.at
	e.fired++
	if ev.who < 0 {
		fn := e.hooks[ev.seq]
		delete(e.hooks, ev.seq)
		fn()
		return
	}
	switch p := e.who[ev.who]; {
	case p.pc < p.plen && e.advance(p):
		// p's program blocked again: it stays parked.
	case p.start != nil:
		fn := p.start
		p.start = nil
		e.startProc(p, fn)
	case p.next == nil:
		e.stop(p)
	default:
		e.activate(p)
	}
}

// mustBeRunning panics unless p is the process currently executing. All
// blocking primitives call this: it catches the common mistake of calling a
// blocking method from outside the simulation or from the wrong process.
func (e *Env) mustBeRunning(p *Proc, op string) {
	if e.cur != p {
		if e.calling >= 0 {
			panic(fmt.Sprintf("sim: %s called from a Call step of process %q; a Call must not block", op, e.who[e.calling].name))
		}
		panic(fmt.Sprintf("sim: %s called from process %q which is not running", op, p.name))
	}
}
