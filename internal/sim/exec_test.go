package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"azurebench/internal/snapshot"
)

// An exec script is a byte string read as: resource count and capacities
// (1-3 each), process count, and per process a start time and a list of
// items — a program of 1..MaxSteps steps, or the spawning of a child that
// runs one program of its own. Steps are sleeps of -1..3 ms (so zero and
// negative ones occur), acquires, releases of something the process holds
// at that point of its script (a wild release is its own test), adds to
// one of two counters, and calls. A call's statements are any of: a draw
// from the PRNG added to a counter, a counter bump, a release, and a tail
// of 1..MaxSteps further steps that replaces the rest of the program (the
// script's program ends at such a call). Nothing stops a program from
// ending on an acquire, from releasing and re-acquiring the same resource,
// or from holding a unit forever.

type execItem struct {
	steps []scriptStep // a program; nil: spawn child
	child []scriptStep
}

type scriptStep struct {
	kind stepKind
	d    time.Duration
	res  int
	ctr  int
	act  int          // stepCall: the callDraw... bits
	tail []scriptStep // stepCall with callThen
}

// What a script's call step does, in this order.
const (
	callDraw = 1 << iota
	callBump
	callRelease
	callThen
)

// contFunc makes a function a Cont.
type contFunc func(*Proc)

func (f contFunc) Resume(p *Proc) { f(p) }

type execProc struct {
	start time.Duration
	items []execItem
}

type execScript struct {
	caps  []int
	procs []execProc
}

type byteCursor struct {
	b []byte
	i int
}

// next returns the next script byte; an exhausted script reads as zeros.
func (c *byteCursor) next() int {
	if c.i >= len(c.b) {
		return 0
	}
	v := c.b[c.i]
	c.i++
	return int(v)
}

func parseExecScript(data []byte) execScript {
	c := &byteCursor{b: data}
	var sc execScript
	for n := 1 + c.next()%3; n > 0; n-- {
		sc.caps = append(sc.caps, 1+c.next()%3)
	}
	var program func(held []int) []scriptStep
	program = func(held []int) []scriptStep {
		var steps []scriptStep
		for n := 1 + c.next()%MaxSteps; n > 0; n-- {
			arg := c.next()
			st := scriptStep{kind: stepKind(arg % 4), res: (arg / 4) % len(sc.caps)}
			switch st.kind {
			case stepSleep:
				st.d = time.Duration(arg/4%5-1) * time.Millisecond
			case stepAcquire:
				held[st.res]++
			case stepRelease:
				if held[st.res] == 0 {
					st = scriptStep{kind: stepSleep}
					break
				}
				held[st.res]--
			case stepAdd:
				st.ctr, st.d = arg/4%2, time.Duration(arg)
				if arg/8%2 == 0 {
					break
				}
				st.kind, st.act = stepCall, arg/16
				if st.act&callRelease != 0 {
					if held[st.res] == 0 {
						st.act &^= callRelease
					} else {
						held[st.res]--
					}
				}
				if st.act&callThen != 0 {
					st.tail = program(held)
					return append(steps, st)
				}
			}
			steps = append(steps, st)
		}
		return steps
	}
	for n := 1 + c.next()%6; n > 0; n-- {
		pr := execProc{start: time.Duration(c.next()%4) * time.Millisecond}
		held := make([]int, len(sc.caps))
		for k := 1 + c.next()%3; k > 0; k-- {
			if c.next()%4 == 0 {
				pr.items = append(pr.items, execItem{child: program(make([]int, len(sc.caps)))})
			} else {
				pr.items = append(pr.items, execItem{steps: program(held)})
			}
		}
		sc.procs = append(sc.procs, pr)
	}
	return sc
}

// execOutcome is everything two runs of one script are compared on.
type execOutcome struct {
	End      time.Duration
	Events   uint64
	Stats    []ResourceStats
	Counters [2]int64
	Log      []string // "<now> <proc>" at each return from a program, in order
	Saves    []string // kernel + resource Save bytes at each stop and at the end
	Panic    any

	switches uint64
	multi    bool // some program with >= 2 sleeps ran to its end
}

var execStops = []time.Duration{0, time.Millisecond, 2500 * time.Microsecond, 6 * time.Millisecond}

// How runExecScript runs a script's programs: as the plain calls their
// steps stand for, handed to Exec, or as the program of a process with no
// coroutine (GoCont), whose next program a Call step at the end of the last
// one swaps in.
type execLeg int

const (
	legCalls execLeg = iota
	legExec
	legCont
)

// runExecScript runs sc on the given leg.
func runExecScript(sc execScript, leg execLeg) (out execOutcome) {
	e := NewEnv(3)
	res := make([]*Resource, len(sc.caps))
	for i, c := range sc.caps {
		res[i] = NewResource(e, fmt.Sprintf("r%d", i), c)
	}
	// call makes a call step's statements; tail runs what replaces the
	// rest of the program.
	call := func(p *Proc, st scriptStep, tail func()) {
		if st.act&callDraw != 0 {
			out.Counters[st.ctr] += int64(p.Rand().Uint64() % 1000)
		}
		if st.act&callBump != 0 {
			out.Counters[st.ctr]++
		}
		if st.act&callRelease != 0 {
			res[st.res].Release()
		}
		if st.act&callThen != 0 {
			tail()
		}
	}
	// program is steps as a program; a non-nil then is called where it ends.
	var program func(steps []scriptStep, then Cont) []Step
	program = func(steps []scriptStep, then Cont) []Step {
		prog := make([]Step, len(steps))
		for i, st := range steps {
			switch st.kind {
			case stepSleep:
				prog[i] = Sleep(st.d)
			case stepAcquire:
				prog[i] = Acquire(res[st.res])
			case stepRelease:
				prog[i] = Release(res[st.res])
			case stepAdd:
				prog[i] = Add(&out.Counters[st.ctr], int64(st.d))
			case stepCall:
				prog[i] = Call(contFunc(func(p *Proc) {
					call(p, st, func() { thenAll(p, program(st.tail, then)) })
				}))
			}
		}
		if then != nil && (len(steps) == 0 || steps[len(steps)-1].act&callThen == 0) {
			prog = append(prog, Call(then))
		}
		return prog
	}
	var calls func(p *Proc, steps []scriptStep)
	calls = func(p *Proc, steps []scriptStep) {
		for _, st := range steps {
			switch st.kind {
			case stepSleep:
				p.Sleep(st.d)
			case stepAcquire:
				res[st.res].Acquire(p)
			case stepRelease:
				res[st.res].Release()
			case stepAdd:
				out.Counters[st.ctr] += int64(st.d)
			case stepCall:
				call(p, st, func() { calls(p, st.tail) })
			}
		}
	}
	ended := func(p *Proc, steps []scriptStep) {
		out.Log = append(out.Log, fmt.Sprintf("%v %s", p.Now(), p.Name()))
		if countSleeps(steps) >= 2 {
			out.multi = true
		}
	}
	runProgram := func(p *Proc, steps []scriptStep) {
		if leg == legExec {
			p.Exec(program(steps, nil)...)
		} else {
			calls(p, steps)
		}
		ended(p, steps)
	}
	// items runs a process with no coroutine from its k-th item on.
	var items func(p *Proc, its []execItem, k int)
	items = func(p *Proc, its []execItem, k int) {
		for ; k < len(its) && its[k].steps == nil; k++ {
			child := its[k].child
			e.GoCont(fmt.Sprintf("%s.%d", p.Name(), k), contFunc(func(q *Proc) {
				thenAll(q, program(child, contFunc(func(q *Proc) { ended(q, child) })))
			}))
		}
		if k < len(its) {
			steps := its[k].steps
			thenAll(p, program(steps, contFunc(func(p *Proc) {
				ended(p, steps)
				items(p, its, k+1)
			})))
		}
	}
	// Every leg starts a script process the same way: a hook at its start
	// time spawns it.
	for i, pr := range sc.procs {
		name := fmt.Sprintf("p%d", i)
		e.OnTime(pr.start, func() {
			if leg == legCont {
				e.GoCont(name, contFunc(func(p *Proc) { items(p, pr.items, 0) }))
				return
			}
			e.Go(name, func(p *Proc) {
				for k, it := range pr.items {
					if it.steps == nil {
						e.Go(fmt.Sprintf("%s.%d", p.Name(), k), func(q *Proc) { runProgram(q, it.child) })
						continue
					}
					runProgram(p, it.steps)
				}
			})
		})
	}
	save := func() {
		w := &snapshot.Writer{}
		e.Save(w)
		for _, r := range res {
			r.Save(w)
		}
		out.Saves = append(out.Saves, fmt.Sprintf("%x %v", w.Bytes(), out.Counters))
	}
	defer func() {
		out.Panic = recover()
		_, out.switches, _ = e.Telemetry()
	}()
	for _, s := range execStops {
		e.RunUntil(s)
		save()
	}
	out.End = e.Run()
	save()
	out.Events = e.Events()
	for _, r := range res {
		out.Stats = append(out.Stats, r.Stats())
	}
	return out
}

// thenAll is p.Then(steps...) for a program of any length: a Call step
// swaps in what does not fit.
func thenAll(p *Proc, steps []Step) {
	if len(steps) <= MaxSteps {
		p.Then(steps...)
		return
	}
	rest := steps[MaxSteps-1:]
	p.Then(append(steps[:MaxSteps-1:MaxSteps-1], Call(contFunc(func(p *Proc) { thenAll(p, rest) })))...)
}

// countSleeps counts the sleeps a script program makes, its tails' included.
func countSleeps(steps []scriptStep) (n int) {
	for _, st := range steps {
		if st.kind == stepSleep {
			n++
		}
		n += countSleeps(st.tail)
	}
	return n
}

// checkExecScript is the property: Exec, a process with no coroutine and
// the calls they stand for cannot be told apart by anything but the switch
// count, which is none at all without a coroutine.
func checkExecScript(t *testing.T, data []byte) {
	t.Helper()
	sc := parseExecScript(data)
	calls, exec, cont := runExecScript(sc, legCalls), runExecScript(sc, legExec), runExecScript(sc, legCont)
	cs, es, multi := calls.switches, exec.switches, exec.multi
	if calls.multi != exec.multi || calls.multi != cont.multi {
		t.Fatalf("script %x: programs completed differ", data)
	}
	if cont.switches != 0 {
		t.Fatalf("script %x: %d switches without a coroutine", data, cont.switches)
	}
	calls.switches, exec.switches, calls.multi, exec.multi, cont.multi = 0, 0, false, false, false
	if !reflect.DeepEqual(calls, exec) {
		t.Fatalf("script %x:\ncalls %+v\nexec  %+v", data, calls, exec)
	}
	if !reflect.DeepEqual(calls, cont) {
		t.Fatalf("script %x:\ncalls %+v\ncont  %+v", data, calls, cont)
	}
	if es > cs || (multi && es >= cs) {
		t.Fatalf("script %x: %d switches through Exec, %d through calls (multi-sleep program: %v)", data, es, cs, multi)
	}
}

// execSeeds are the hand-written corner cases, as scripts.
var execSeeds = [][]byte{
	nil,
	// One resource of capacity 1, two processes that both run
	// [acquire, sleep 1ms, release, sleep 0, sleep -1ms]: a Use with a tail.
	{0, 0, 1, 0, 0, 1, 4, 1, 8, 2, 4, 0, 0, 0, 1, 4, 1, 8, 2, 4, 0},
	// Release-then-acquire of the same resource inside one program, and a
	// program that ends on an acquire it never gives back.
	{0, 0, 2, 0, 1, 1, 3, 1, 2, 1, 8, 1, 0, 1, 1, 1, 12, 1, 1, 1, 0, 1},
	// Children spawned between programs, three resources.
	{2, 1, 2, 0, 3, 1, 2, 0, 2, 1, 12, 2, 1, 3, 5, 12, 9, 3, 0, 0, 1, 12, 6, 1, 1, 0, 2, 16, 16},
}

func TestExecMatchesCalls(t *testing.T) {
	for _, s := range execSeeds {
		checkExecScript(t, s)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1500; i++ {
		data := make([]byte, 8+rng.Intn(120))
		rng.Read(data)
		checkExecScript(t, data)
	}
}

func FuzzExecProgram(f *testing.F) {
	for _, s := range execSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			t.Skip()
		}
		checkExecScript(t, data)
	})
}

// A five-step program around a contended station costs each process one
// switch, not one per sleep and grant: the count the cloud pipeline relies
// on.
func TestExecSwitchCounts(t *testing.T) {
	for _, useExec := range []bool{false, true} {
		e := NewEnv(1)
		r := NewResource(e, "r", 1)
		for i := 0; i < 2; i++ {
			e.Go("", func(p *Proc) {
				if useExec {
					p.Exec(Sleep(time.Millisecond), Acquire(r), Sleep(time.Millisecond), Release(r), Sleep(time.Millisecond))
				} else {
					p.Sleep(time.Millisecond)
					r.Acquire(p)
					p.Sleep(time.Millisecond)
					r.Release()
					p.Sleep(time.Millisecond)
				}
			})
		}
		e.Run()
		events, switches, _ := e.Telemetry()
		// Two starts, three sleeps each and one grant by hand-over.
		if events != 9 {
			t.Errorf("exec=%v: %d events, want 9", useExec, events)
		}
		if want := map[bool]uint64{false: 9, true: 4}[useExec]; switches != want {
			t.Errorf("exec=%v: %d switches, want %d", useExec, switches, want)
		}
	}
}

func TestExecFromWrongProcessPanics(t *testing.T) {
	e := NewEnv(1)
	var other *Proc
	other = e.Go("other", func(p *Proc) { p.Sleep(time.Second) })
	e.Go("caller", func(p *Proc) { other.Exec(Sleep(time.Millisecond)) })
	defer func() {
		r := fmt.Sprint(recover())
		if !strings.Contains(r, `Exec called from process "other" which is not running`) {
			t.Fatalf("panic = %s", r)
		}
	}()
	e.Run()
}

func TestExecTooLongPanics(t *testing.T) {
	e := NewEnv(1)
	e.Go("p", func(p *Proc) { p.Exec(make([]Step, MaxSteps+1)...) })
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, "Exec with 9 steps") {
			t.Fatalf("panic = %s", r)
		}
	}()
	e.Run()
}

// A Release without an Acquire is the process's bug whichever way it is
// made: the same panic value comes out of Run, the process is ended and
// joined, and the steps before the faulty one have happened.
func TestExecWildReleasePanicsLikeTheCall(t *testing.T) {
	run := func(useExec bool) (panicked any, ended bool, now time.Duration, events uint64, stats ResourceStats) {
		e := NewEnv(1)
		r := NewResource(e, "r", 1)
		p := e.Go("culprit", func(p *Proc) {
			if useExec {
				p.Exec(Sleep(time.Millisecond), Release(r), Sleep(time.Millisecond))
			} else {
				p.Sleep(time.Millisecond)
				r.Release()
				p.Sleep(time.Millisecond)
			}
		})
		func() {
			defer func() { panicked = recover() }()
			e.Run()
		}()
		return panicked, p.ended, e.Now(), e.Events(), r.Stats()
	}
	cp, ce, cn, cev, cst := run(false)
	ep, ee, en, eev, est := run(true)
	if cp == nil || !strings.Contains(fmt.Sprint(cp), "Release without matching Acquire") {
		t.Fatalf("plain calls did not panic as expected: %v", cp)
	}
	if cp != ep || ce != ee || cn != en || cev != eev || cst != est {
		t.Errorf("calls: %v ended=%v now=%v events=%d %+v\nexec:  %v ended=%v now=%v events=%d %+v",
			cp, ce, cn, cev, cst, ep, ee, en, eev, est)
	}
	// The first step of a program runs in the process itself.
	e := NewEnv(1)
	r := NewResource(e, "r", 1)
	e.Go("first", func(p *Proc) { p.Exec(Release(r)) })
	defer func() {
		if r := fmt.Sprint(recover()); !strings.Contains(r, `process "first" panicked: sim: Resource.Release without`) {
			t.Fatalf("panic = %s", r)
		}
	}()
	e.Run()
}

// A chain of Call steps, each swapping in the next stretch with Then, is
// one program however long it runs: twenty sleeps, one switch to start the
// process and one at the end.
func TestThenChainsPastMaxSteps(t *testing.T) {
	e := NewEnv(1)
	left := 20
	var k Cont
	k = contFunc(func(p *Proc) {
		if left--; left > 0 {
			p.Then(Sleep(time.Millisecond), Call(k))
		}
	})
	e.Go("p", func(p *Proc) { p.Exec(Sleep(time.Millisecond), Call(k)) })
	e.Run()
	if events, switches, _ := e.Telemetry(); e.Now() != 20*time.Millisecond || events != 21 || switches != 2 {
		t.Fatalf("now %v, %d events, %d switches; want 20ms, 21, 2", e.Now(), events, switches)
	}
}

// runCall runs one process whose program makes k, as its first step (the
// process runs it) or after a sleep (the kernel does), and reports what
// came out of Run and whether the process ended with its defers run.
func runCall(k Cont, kernel bool) (panicked any, cleanedUp bool, now time.Duration, live int) {
	e := NewEnv(1)
	e.Go("p", func(p *Proc) {
		defer func() { cleanedUp = true }()
		if kernel {
			p.Exec(Sleep(time.Millisecond), Call(k), Sleep(time.Millisecond))
		} else {
			p.Exec(Call(k), Sleep(time.Millisecond))
		}
	})
	func() {
		defer func() { panicked = recover() }()
		e.Run()
	}()
	return panicked, cleanedUp, e.Now(), e.Live()
}

// A Call must not block. Every blocking primitive panics inside Resume,
// whoever made the step, and the panic leaves Run as the process's own.
func TestCallThatBlocksPanics(t *testing.T) {
	blockers := map[string]func(p *Proc){
		"Sleep":            func(p *Proc) { p.Sleep(time.Millisecond) },
		"Exec":             func(p *Proc) { p.Exec(Sleep(time.Millisecond)) },
		"Resource.Acquire": func(p *Proc) { NewResource(p.env, "r", 1).Acquire(p) },
		"Store.Get":        func(p *Proc) { NewStore[int](p.env, "s").Get(p) },
		"Signal.Wait":      func(p *Proc) { NewSignal(p.env).Wait(p) },
	}
	for name, block := range blockers {
		for _, kernel := range []bool{false, true} {
			got, cleanedUp, _, live := runCall(contFunc(block), kernel)
			want := fmt.Sprintf(`sim: process "p" panicked: sim: %s called from a Call step of process "p"; a Call must not block`, name)
			if got != want || !cleanedUp || live != 0 {
				t.Errorf("%s (kernel=%v): panic %v, defers run %v, %d live\nwant %s", name, kernel, got, cleanedUp, live, want)
			}
		}
	}
}

// A panic in Resume is a panic of the process: the same value out of Run
// as a panic in its body, the process ended, its defers run, and the
// steps before the Call made.
func TestCallPanicIsTheProcessPanic(t *testing.T) {
	for _, kernel := range []bool{false, true} {
		got, cleanedUp, now, live := runCall(contFunc(func(*Proc) { panic("boom") }), kernel)
		want := map[bool]time.Duration{false: 0, true: time.Millisecond}[kernel]
		if got != `sim: process "p" panicked: boom` || !cleanedUp || live != 0 || now != want {
			t.Errorf("kernel=%v: panic %v, defers run %v, %d live, now %v (want %v)", kernel, got, cleanedUp, live, now, want)
		}
	}
}

// Then belongs to a Call step of its own process, and takes a program.
func TestThenOutsideItsCallPanics(t *testing.T) {
	for name, c := range map[string]struct {
		body func(p, other *Proc)
		want string
	}{
		"process body": {func(p, _ *Proc) { p.Then(Sleep(0)) }, `sim: Then on process "p" outside its Call step`},
		"another's Call": {func(p, other *Proc) {
			p.Exec(Call(contFunc(func(*Proc) { other.Then(Sleep(0)) })))
		}, `sim: Then on process "other" outside its Call step`},
		"too long": {func(p, _ *Proc) {
			p.Exec(Call(contFunc(func(p *Proc) { p.Then(make([]Step, MaxSteps+1)...) })))
		}, "sim: Then with 9 steps (at most 8)"},
	} {
		var got any
		e := NewEnv(1)
		other := e.Go("other", func(p *Proc) { p.Sleep(time.Second) })
		e.Go("p", func(p *Proc) { c.body(p, other) })
		func() {
			defer func() { got = recover() }()
			e.Run()
		}()
		if want := `sim: process "p" panicked: ` + c.want; got != want {
			t.Errorf("%s: panic %v, want %s", name, got, want)
		}
	}
}

// runCont runs k as the whole program of a process with no coroutine and
// reports what came out of Run and what the kernel says of the process.
func runCont(k Cont) (panicked any, ended bool, live int, switches uint64) {
	e := NewEnv(1)
	p := e.GoCont("c", k)
	func() {
		defer func() { panicked = recover() }()
		e.Run()
	}()
	_, switches, _ = e.Telemetry()
	return panicked, p.ended, e.Live(), switches
}

// A process with no coroutine has nothing to block: every blocking
// primitive panics in it as inside any Call step, naming the process, and
// the panic leaves Run as the process's own with the process ended.
func TestContThatBlocksPanics(t *testing.T) {
	for _, name := range []string{"Sleep", "Exec", "Resource.Acquire", "Store.Get", "Signal.Wait"} {
		block := map[string]func(p *Proc){
			"Sleep":            func(p *Proc) { p.Sleep(time.Millisecond) },
			"Exec":             func(p *Proc) { p.Exec(Sleep(time.Millisecond)) },
			"Resource.Acquire": func(p *Proc) { NewResource(p.env, "r", 1).Acquire(p) },
			"Store.Get":        func(p *Proc) { NewStore[int](p.env, "s").Get(p) },
			"Signal.Wait":      func(p *Proc) { NewSignal(p.env).Wait(p) },
		}[name]
		// Once in its first Call, once in a Call a program swapped in.
		for _, later := range []bool{false, true} {
			k := contFunc(block)
			if later {
				k = contFunc(func(p *Proc) { p.Then(Sleep(time.Millisecond), Call(contFunc(block))) })
			}
			got, ended, live, switches := runCont(k)
			want := fmt.Sprintf(`sim: process "c" panicked: sim: %s called from a Call step of process "c"; a Call must not block`, name)
			if got != want || !ended || live != 0 || switches != 0 {
				t.Errorf("%s (later %v): panic %v, ended %v, %d live, %d switches\nwant %s", name, later, got, ended, live, switches, want)
			}
		}
	}
}

// A panic in its Call is the process's panic: named, the process ended and
// no longer live.
func TestContCallPanicIsTheProcessPanic(t *testing.T) {
	got, ended, live, _ := runCont(contFunc(func(p *Proc) {
		p.Then(Sleep(time.Millisecond), Call(contFunc(func(*Proc) { panic("boom") })))
	}))
	if got != `sim: process "c" panicked: boom` || !ended || live != 0 {
		t.Errorf("panic %v, ended %v, %d live", got, ended, live)
	}
}

// A process waiting for one with no coroutine to finish — here on a signal
// its last Call fires — resumes at the instant its program runs dry, and
// finds it ended and no longer counted live.
func TestContJoinReturnsWhenItsProgramEnds(t *testing.T) {
	e := NewEnv(1)
	done := NewSignal(e)
	left := 3
	var k Cont
	k = contFunc(func(p *Proc) {
		if left--; left > 0 {
			p.Then(Sleep(time.Millisecond), Call(k))
			return
		}
		done.Fire()
	})
	c := e.GoCont("c", k)
	var at time.Duration
	var ended bool
	var live int
	e.Go("joiner", func(p *Proc) {
		done.Wait(p)
		at, ended, live = p.Now(), c.ended, e.Live()
	})
	e.Run()
	if at != 2*time.Millisecond || !ended || live != 1 {
		t.Errorf("joined at %v, ended %v, %d live; want 2ms, true, 1 (the joiner)", at, ended, live)
	}
	if e.Live() != 0 {
		t.Errorf("%d live after Run", e.Live())
	}
}

// A wild Release in its program panics as the plain call does: the same
// value out of Run, at the same instant after the same events, the process
// ended. With no coroutine to hand the step back to, the kernel makes it.
func TestContWildReleasePanicsLikeTheCall(t *testing.T) {
	run := func(cont bool) (panicked any, ended bool, now time.Duration, events uint64, stats ResourceStats) {
		e := NewEnv(1)
		r := NewResource(e, "r", 1)
		var p *Proc
		if cont {
			p = e.GoCont("culprit", contFunc(func(p *Proc) {
				p.Then(Sleep(time.Millisecond), Release(r), Sleep(time.Millisecond))
			}))
		} else {
			p = e.Go("culprit", func(p *Proc) {
				p.Sleep(time.Millisecond)
				r.Release()
				p.Sleep(time.Millisecond)
			})
		}
		func() {
			defer func() { panicked = recover() }()
			e.Run()
		}()
		return panicked, p.ended, e.Now(), e.Events(), r.Stats()
	}
	cp, ce, cn, cev, cst := run(false)
	kp, ke, kn, kev, kst := run(true)
	if cp == nil || !strings.Contains(fmt.Sprint(cp), "Release without matching Acquire") {
		t.Fatalf("plain calls did not panic as expected: %v", cp)
	}
	if cp != kp || ce != ke || cn != kn || cev != kev || cst != kst {
		t.Errorf("calls: %v ended=%v now=%v events=%d %+v\ncont:  %v ended=%v now=%v events=%d %+v",
			cp, ce, cn, cev, cst, kp, ke, kn, kev, kst)
	}
}
