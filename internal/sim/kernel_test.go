package sim

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"azurebench/internal/snapshot"
)

// fiftyProcScript is a fixed workload that touches every wake-up site
// (Sleep, Resource.Release, Store.Put, Signal.Fire, WaitGroup.Add, GoAt,
// OnTime) and, stopped at 12ms, leaves sleepers, parked waiters and
// not-yet-started processes behind — a non-empty heap with ties in at.
func fiftyProcScript() *Env {
	e := NewEnv(7)
	srv := NewResource(e, "srv", 2)
	box := NewStore[int](e, "box")
	gate := NewSignal(e)
	wg := NewWaitGroup(e)
	wg.Add(10)
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
				wg.Done()
				wg.Wait(p)
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
	if n := len(e.events); n != fiftyProcPending {
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

// TestEventHeapMatchesSortedSlice plays random push/pop interleavings —
// at drawn from eight values so ties are the rule, not the exception —
// on the 4-ary heap and on a slice kept sorted by (at, seq), and requires
// the same event out of every pop and the same contents at the end.
func TestEventHeapMatchesSortedSlice(t *testing.T) {
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
		var h eventHeap
		var model []event
		var seq uint64
		pop := func() bool {
			got, want := h.pop(), model[0]
			model = model[1:]
			if got.at != want.at || got.seq != want.seq {
				t.Errorf("pop = (%v, %d), want (%v, %d)", got.at, got.seq, want.at, want.seq)
				return false
			}
			return true
		}
		for _, b := range script {
			if b&3 == 0 { // one op in four pops, so the heap grows deep
				if len(model) > 0 && !pop() {
					return false
				}
				continue
			}
			seq++
			ev := event{at: time.Duration(b >> 5), seq: seq}
			h.push(ev)
			i := sort.Search(len(model), func(i int) bool { return ev.before(&model[i]) })
			model = append(model, event{})
			copy(model[i+1:], model[i:])
			model[i] = ev
			if len(h) != len(model) {
				t.Errorf("len = %d, want %d", len(h), len(model))
				return false
			}
		}
		for len(model) > 0 {
			if !pop() {
				return false
			}
		}
		return len(h) == 0
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
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
	if e.Events() != 7 || len(e.events) != 20 {
		t.Fatalf("after RunUntil(7s): %d fired, %d pending; want 7 and 20", e.Events(), len(e.events))
	}
	if at := e.events[0].at; at != 8*time.Second {
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
