package sim

import (
	"cmp"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"azurebench/internal/snapshot"
)

// fiftyProcScript is a fixed workload that touches every wake-up site
// (Sleep, Resource.Release, Store.Put, Signal.Fire, GoAt, OnTime) and, stopped at 12ms, leaves sleepers, parked waiters and
// not-yet-started processes behind — a non-empty heap with ties in at.
func fiftyProcScript() *Env {
	e := NewEnv(7)
	srv := NewResource(e, "srv", 2)
	box := NewStore[int](e, "box")
	gate := NewSignal(e)
	// A barrier of ten: the last arrival fires it.
	barrier, arrivals := NewSignal(e), 10
	for i := 0; i < 50; i++ {
		i := i
		e.GoAt(time.Duration(i%7)*time.Millisecond, fmt.Sprintf("p%d", i), func(p *Proc) {
			switch i % 5 {
			case 0: // station users
				for k := 0; k < 6; k++ {
					srv.Use(p, time.Duration(1+p.Rand().Intn(4))*time.Millisecond)
				}
			case 1: // producers
				for k := 0; k < 4; k++ {
					p.Sleep(time.Duration(2+i%3) * time.Millisecond)
					box.Put(i*10 + k)
				}
			case 2: // consumers
				for k := 0; k < 4; k++ {
					p.Sleep(time.Duration(box.Get(p)%5) * time.Millisecond)
				}
			case 3: // barrier participants
				p.Sleep(time.Duration(i) * time.Millisecond)
				if arrivals--; arrivals == 0 {
					barrier.Fire()
				}
				barrier.Wait(p)
				p.Sleep(3 * time.Millisecond)
			case 4: // gate waiters
				gate.Wait(p)
				p.Sleep(time.Duration(i%4) * time.Millisecond)
				p.Yield()
			}
		})
	}
	e.OnTime(25*time.Millisecond, gate.Fire)
	e.OnTime(60*time.Millisecond, func() {})
	return e
}

// Computed on the channel kernel (commit 82f00ef, the parent of the
// coroutine rewrite) by running this same test with the constants
// blanked. The Save section carries the clock, seq, fired, spawn and
// live counts, the PRNG state, the heap length and its fingerprint.
const (
	fiftyProcSaveHex     = "0000000000b71b0000000000000000a8000000000000009000000000000000320000000000000030fa8cfc37711c2dc00000000000000018c863fd9193a5ea3f"
	fiftyProcFingerprint = uint64(0xc863fd9193a5ea3f)
	fiftyProcPending     = 24
)

func TestSaveGoldenFiftyProcesses(t *testing.T) {
	e := fiftyProcScript()
	e.RunUntil(12 * time.Millisecond)
	if n := e.Pending(); n != fiftyProcPending {
		t.Errorf("pending events = %d, want %d", n, fiftyProcPending)
	}
	if fp := e.eventFingerprint(); fp != fiftyProcFingerprint {
		t.Errorf("eventFingerprint = %#x, want %#x", fp, fiftyProcFingerprint)
	}
	var w snapshot.Writer
	e.Save(&w)
	if got := hex.EncodeToString(w.Bytes()); got != fiftyProcSaveHex {
		t.Errorf("Save bytes =\n%s\nwant\n%s", got, fiftyProcSaveHex)
	}
	// The rest of the script must still drain.
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("%d processes still live after Run", e.Live())
	}
}

// queueDeltas are how far past the latest pop a scripted push lands: ties,
// near neighbours in the low buckets, and steps into later[20], later[40]
// and later[62]. Sums saturate at math.MaxInt64, which makes ties up there
// too.
var queueDeltas = [...]time.Duration{0, 1, 2, 3, 1 << 20, 1 << 40, 1 << 62}

// runQueueScript plays a byte script on an eventQueue and on a slice kept
// sorted by (at, seq), the order the queue promises. A byte's low two bits
// pick the op: 0 pops, 1 peeks with minAt, 2 and 3 push at the latest pop
// plus queueDeltas[(b>>2) mod 7] — never earlier, as in the kernel. Every
// pop must return the model's first event, every peek its time, and at the
// end appendTo must hold exactly the model's events. It returns the first
// disagreement.
func runQueueScript(script []byte) error {
	var q eventQueue
	var model []event
	var seq uint64
	var last time.Duration
	for k, b := range script {
		switch {
		case b&3 == 0 && len(model) > 0:
			got, want := q.pop(), model[0]
			model = model[1:]
			if got.at != want.at || got.seq != want.seq {
				return fmt.Errorf("op %d: pop = (%d, %d), want (%d, %d)", k, got.at, got.seq, want.at, want.seq)
			}
			last = got.at
		case b&3 == 1 && len(model) > 0:
			if got := q.minAt(); got != model[0].at {
				return fmt.Errorf("op %d: minAt = %d, want %d", k, got, model[0].at)
			}
		case b&3 >= 2:
			at := time.Duration(math.MaxInt64)
			if d := queueDeltas[int(b>>2)%len(queueDeltas)]; d <= at-last {
				at = last + d
			}
			seq++
			ev := event{at: at, seq: seq}
			q.push(ev)
			i := sort.Search(len(model), func(i int) bool { return model[i].at > at })
			model = slices.Insert(model, i, ev)
		}
		if q.n != len(model) {
			return fmt.Errorf("op %d: %d pending, want %d", k, q.n, len(model))
		}
	}
	rest := q.appendTo(nil)
	slices.SortFunc(rest, func(a, b event) int { return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq)) })
	if !slices.EqualFunc(rest, model, func(a, b event) bool { return a.at == b.at && a.seq == b.seq }) {
		return fmt.Errorf("appendTo does not hold the %d pending events", len(model))
	}
	for len(model) > 0 {
		if got := q.pop(); got.at != model[0].at || got.seq != model[0].seq {
			return fmt.Errorf("draining: pop = (%d, %d), want (%d, %d)", got.at, got.seq, model[0].at, model[0].seq)
		}
		model = model[1:]
	}
	return nil
}

// TestEventQueueMatchesSortedSlice runs 2 000 random scripts through
// runQueueScript; FuzzEventQueue (make fuzz-smoke) searches further.
func TestEventQueueMatchesSortedSlice(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Rand:     rand.New(rand.NewSource(18)),
		Values: func(args []reflect.Value, rng *rand.Rand) {
			script := make([]byte, 16+rng.Intn(400))
			rng.Read(script)
			args[0] = reflect.ValueOf(script)
		},
	}
	check := func(script []byte) bool {
		if err := runQueueScript(script); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

func FuzzEventQueue(f *testing.F) {
	f.Add([]byte{2, 2, 3, 1, 0, 2, 0, 0, 0})                        // ties at 0, FIFO out
	f.Add([]byte{6, 10, 14, 18, 22, 26, 1, 0, 1, 0, 1, 0, 0, 0, 0}) // one push per delta
	f.Add([]byte{26, 26, 0, 26, 26, 0, 26, 1, 0, 0, 0})             // saturating at MaxInt64
	f.Add([]byte{18, 22, 14, 10, 0, 18, 6, 1, 0, 22, 2, 0, 1, 0})   // moves out of high buckets
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := runQueueScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGoexitInProcessEndsRunCaller: runtime.Goexit inside a process is
// what t.FailNow does. It must end the goroutine that called Run — not
// hang the kernel, and not let Run return as if the simulation finished.
func TestGoexitInProcessEndsRunCaller(t *testing.T) {
	e := NewEnv(1)
	e.Go("quitter", func(p *Proc) {
		p.Sleep(time.Second)
		runtime.Goexit()
	})
	e.Go("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	returned := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run hung after Goexit in a process")
	}
	if returned {
		t.Fatal("Run returned normally after Goexit in a process")
	}
	if e.Now() != time.Second {
		t.Fatalf("clock = %v, want 1s (the bystander's wake-up must not have fired)", e.Now())
	}
}

// TestRunBoundsOnValueHeap: RunUntil fires exactly the events due by t and
// leaves the later ones queued for the next call.
func TestRunBoundsOnValueHeap(t *testing.T) {
	e := NewEnv(1)
	for i := 1; i <= 20; i++ {
		e.GoAt(time.Duration(i)*time.Second, "", func(p *Proc) { p.Sleep(30 * time.Second) })
	}
	e.RunUntil(7 * time.Second)
	// 7 starts fired; 7 wake-ups and 13 starts remain.
	if e.Events() != 7 || e.Pending() != 20 {
		t.Fatalf("after RunUntil(7s): %d fired, %d pending; want 7 and 20", e.Events(), e.Pending())
	}
	if at := e.events.minAt(); at != 8*time.Second {
		t.Fatalf("next pending event at %v, want 8s", at)
	}
	e.RunUntil(12 * time.Second)
	if e.Events() != 12 || e.Pending() != 20 {
		t.Fatalf("after RunUntil(12s): %d fired, %d pending; want 12 and 20", e.Events(), e.Pending())
	}
	e.Run() // exactly the 8 starts and 20 wake-ups left
	if e.Events() != 40 || e.Now() != 50*time.Second || e.Live() != 0 || e.Pending() != 0 {
		t.Fatalf("at end: %d fired at %v, %d live; want 40 at 50s, 0", e.Events(), e.Now(), e.Live())
	}
}

// TestRunUntilShortOfNextEvent: RunUntil(10ms) stops with the next event
// due at 16ms. What is then scheduled from outside the run at 10ms to
// 16ms−1ns must fire before 16ms, in (at, seq) order. It fails if finding
// the next event's time moved the queue's latest pop past the stop time,
// which files the later pushes as if they were due after 16ms. The fired
// order and the Save bytes at a second stop were computed on the 4-ary
// heap the radix queue replaced.
func TestRunUntilShortOfNextEvent(t *testing.T) {
	e := NewEnv(3)
	var fired []string
	note := func(what string) { fired = append(fired, fmt.Sprintf("%s@%v", what, e.Now())) }
	for i, ms := range []time.Duration{8, 16, 16, 20, 40} {
		name := fmt.Sprintf("p%d", i)
		e.Go(name, func(p *Proc) {
			p.Sleep(ms * time.Millisecond)
			note(name)
			p.Sleep(time.Millisecond)
			note(name)
		})
	}
	e.RunUntil(10 * time.Millisecond) // p0 ended at 9ms; 16, 16, 20, 40ms pending
	e.OnTime(10*time.Millisecond, func() { note("hook-a") })
	e.GoAt(12*time.Millisecond, "late", func(p *Proc) {
		note("late")
		p.Sleep(2 * time.Millisecond)
		note("late")
	})
	e.OnTime(12*time.Millisecond, func() { note("hook-b") })
	e.OnTime(16*time.Millisecond-1, func() { note("hook-c") })
	e.OnTime(10*time.Millisecond, func() { note("hook-d") })
	e.RunUntil(18 * time.Millisecond)
	var w snapshot.Writer
	e.Save(&w)
	if got := hex.EncodeToString(w.Bytes()); got != shortStopSaveHex {
		t.Errorf("Save bytes at 18ms =\n%s\nwant\n%s", got, shortStopSaveHex)
	}
	e.Run()
	want := []string{
		"p0@8ms", "p0@9ms", "hook-a@10ms", "hook-d@10ms", "late@12ms", "hook-b@12ms",
		"late@14ms", "hook-c@15.999999ms", "p1@16ms", "p2@16ms", "p1@17ms", "p2@17ms",
		"p3@20ms", "p3@21ms", "p4@40ms", "p4@41ms",
	}
	if !slices.Equal(fired, want) {
		t.Errorf("fired\n%q\nwant\n%q", fired, want)
	}
}

const shortStopSaveHex = "000000000112a88000000000000000130000000000000011000000000000000600000000000000023c6ef372fe94f82d00000000000000021dc29705d248958d"

// TestSameInstantEventsStayBounded: processes that keep yielding at one
// instant never let the clock move, so the events due now never run dry
// between two pops. The queue must still drop the slots it has popped
// instead of growing by one per event.
func TestSameInstantEventsStayBounded(t *testing.T) {
	e := NewEnv(1)
	for w := 0; w < 3; w++ {
		e.Go("yielder", func(p *Proc) {
			for i := 0; i < 10000; i++ {
				p.Yield()
			}
		})
	}
	e.Run()
	if e.Now() != 0 || e.Events() != 30003 {
		t.Fatalf("ran to %v with %d events, want 0 and 30003", e.Now(), e.Events())
	}
	if c := cap(e.events.due.items); c > 16 {
		t.Fatalf("due events kept a backing array of %d slots for 3 pending events", c)
	}
}

// TestSteadyStateAllocatesNothing: once the heap and the waiter queues
// have their capacity, a Sleep, a contended Resource.Use and a program
// handed to Exec allocate nothing — no event record, no closure, no copy
// of the steps.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	measure := func(name string, body func(p *Proc, r *Resource)) {
		e := NewEnv(1)
		r := NewResource(e, "srv", 1)
		var allocs float64
		e.Go("measured", func(p *Proc) {
			body(p, r) // warm-up: grow the heap and the queue
			allocs = testing.AllocsPerRun(200, func() { body(p, r) })
		})
		for w := 0; w < 4; w++ { // keep the station contended throughout
			e.Go("rival", func(p *Proc) {
				for i := 0; i < 1000; i++ {
					r.Use(p, time.Microsecond)
				}
			})
		}
		e.Run()
		if allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
	measure("Sleep", func(p *Proc, _ *Resource) { p.Sleep(time.Microsecond) })
	measure("Resource.Use", func(p *Proc, r *Resource) { r.Use(p, time.Microsecond) })
	var n int64
	measure("Exec", func(p *Proc, r *Resource) {
		p.Exec(Sleep(time.Microsecond), Acquire(r), Sleep(time.Microsecond), Release(r), Add(&n, 1), Sleep(0))
	})
}

// TestTelemetryCounts pins the kernel's self-telemetry on a program small
// enough to count by hand.
func TestTelemetryCounts(t *testing.T) {
	e := NewEnv(1)
	for i := 0; i < 3; i++ {
		e.Go("", func(p *Proc) { p.Sleep(time.Second) })
	}
	e.OnTime(2*time.Second, func() {})
	e.Run()
	events, switches, peak := e.Telemetry()
	// 3 starts + 3 wake-ups + 1 hook; the hook runs in kernel context and
	// is not a switch; all of 3 starts and the hook were pending at once.
	if events != 7 || switches != 6 || peak != 4 {
		t.Fatalf("Telemetry() = %d events, %d switches, peak %d; want 7, 6, 4", events, switches, peak)
	}
	if events != e.Events() {
		t.Fatalf("Telemetry events %d != Events() %d", events, e.Events())
	}
}

// TestKernelValuesHoldNoPointers: the two values the kernel copies on every
// step — a stored program step and a pending event — hold no pointer, so
// copying one pays no write barrier while the GC marks and the slices that
// hold them are never scanned. A field that brings a pointer back fails
// here.
func TestKernelValuesHoldNoPointers(t *testing.T) {
	prog, _ := reflect.TypeOf(Proc{}).FieldByName("prog")
	for _, typ := range []reflect.Type{prog.Type.Elem(), reflect.TypeOf(event{})} {
		if path := pointerIn(typ, typ.Name()); path != "" {
			t.Errorf("%s holds a pointer at %s", typ, path)
		}
	}
}

// pointerIn returns the path to the first field of typ that is or holds a
// pointer — a pointer, interface, func, slice, map, string, channel or
// unsafe pointer — or "" when there is none.
func pointerIn(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if p := pointerIn(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerIn(typ.Elem(), path+"[]")
	case reflect.Pointer, reflect.Interface, reflect.Func, reflect.Slice, reflect.Map,
		reflect.String, reflect.Chan, reflect.UnsafePointer:
		return path + " (" + typ.Kind().String() + ")"
	}
	return ""
}

// hop sleeps, then starts the next of n processes with no coroutine and
// ends: one process is live at a time, and n of them run one after another.
type hop struct {
	n     int
	slept bool
}

func (h *hop) Resume(p *Proc) {
	switch {
	case !h.slept:
		h.slept = true
		p.Then(Sleep(time.Microsecond), Call(h))
	case h.n > 1:
		p.env.GoCont("", &hop{n: h.n - 1})
	}
}

// TestEndedProcessesFreeTheirSlot: a process's slot in the table that
// events name it by is freed when it ends and reused by the next, so an
// open-loop run that starts a process per arrival keeps the table as small
// as the processes live at once.
func TestEndedProcessesFreeTheirSlot(t *testing.T) {
	e := NewEnv(1)
	e.GoCont("first", &hop{n: 100000})
	e.Run()
	if e.Live() != 0 || e.Events() != 2*100000 || e.Now() != 100000*time.Microsecond {
		t.Fatalf("%d live, %d events by %v; want 0, 200000 by 100ms", e.Live(), e.Events(), e.Now())
	}
	if n := len(e.who); n > 2 {
		t.Fatalf("process table holds %d slots after 100 000 processes, at most 2 live at once", n)
	}
}
