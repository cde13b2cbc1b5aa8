package sim

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	e := NewEnv(1)
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv(1)
	var at time.Duration
	e.Go("p", func(p *Proc) {
		p.Sleep(5 * time.Second)
		at = p.Now()
	})
	e.Run()
	if at != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", at)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("final time %v, want 5s", e.Now())
	}
}

func TestSleepNegativeTreatedAsZero(t *testing.T) {
	e := NewEnv(1)
	ok := false
	e.Go("p", func(p *Proc) {
		p.Sleep(-time.Second)
		ok = true
	})
	e.Run()
	if !ok {
		t.Fatal("process did not resume after negative sleep")
	}
	if e.Now() != 0 {
		t.Fatalf("time advanced to %v on negative sleep", e.Now())
	}
}

func TestEventOrderingSameInstantFIFO(t *testing.T) {
	e := NewEnv(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			order = append(order, i)
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestInterleavingByTimestamp(t *testing.T) {
	e := NewEnv(1)
	var trace []string
	e.Go("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(2 * time.Second)
			trace = append(trace, fmt.Sprintf("a@%v", p.Now()))
		}
	})
	e.Go("b", func(p *Proc) {
		for i := 0; i < 2; i++ {
			p.Sleep(3 * time.Second)
			trace = append(trace, fmt.Sprintf("b@%v", p.Now()))
		}
	})
	e.Run()
	// At t=6s both wake; b's wake event was scheduled first (at t=3s vs
	// t=4s), so b runs first under schedule-order tie-breaking.
	want := []string{"a@2s", "b@3s", "a@4s", "b@6s", "a@6s"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestGoAtSchedulesInFuture(t *testing.T) {
	e := NewEnv(1)
	var started time.Duration
	e.GoAt(7*time.Second, "late", func(p *Proc) {
		started = p.Now()
	})
	e.Run()
	if started != 7*time.Second {
		t.Fatalf("started at %v, want 7s", started)
	}
}

func TestRunUntilStopsEarly(t *testing.T) {
	e := NewEnv(1)
	var wokeTimes []time.Duration
	e.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Second)
			wokeTimes = append(wokeTimes, p.Now())
		}
	})
	e.RunUntil(2 * time.Second)
	if len(wokeTimes) != 2 {
		t.Fatalf("got %d wakes, want 2", len(wokeTimes))
	}
	if e.Now() != 2*time.Second {
		t.Fatalf("clock = %v, want 2s", e.Now())
	}
	// Continue the run.
	e.Run()
	if len(wokeTimes) != 5 {
		t.Fatalf("after full run got %d wakes, want 5", len(wokeTimes))
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	e := NewEnv(1)
	e.RunUntil(time.Minute)
	if e.Now() != time.Minute {
		t.Fatalf("clock = %v, want 1m", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEnv(1)
	e.Go("p", func(p *Proc) { p.Sleep(time.Hour) })
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.GoAt(time.Second, "late", func(p *Proc) {})
}

func TestBlockingCallFromWrongContextPanics(t *testing.T) {
	e := NewEnv(1)
	var p1 *Proc
	p1 = e.Go("p1", func(p *Proc) { p.Sleep(time.Hour) })
	e.Go("p2", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("Sleep on foreign proc did not panic")
			}
		}()
		p1.Sleep(time.Second) // wrong: p1 is not the running process
	})
	e.RunUntil(time.Minute)
}

func TestLiveCount(t *testing.T) {
	e := NewEnv(1)
	e.Go("a", func(p *Proc) { p.Sleep(time.Second) })
	e.Go("b", func(p *Proc) { p.Sleep(2 * time.Second) })
	if e.Live() != 2 {
		t.Fatalf("Live = %d, want 2", e.Live())
	}
	e.Run()
	if e.Live() != 0 {
		t.Fatalf("Live after run = %d, want 0", e.Live())
	}
}

// TestDeterminism runs a moderately complex simulation twice and requires
// identical traces.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		var trace []string
		e := NewEnv(42)
		res := NewResource(e, "srv", 2)
		st := NewStore[int](e, "jobs")
		for i := 0; i < 20; i++ {
			st.Put(i)
		}
		for w := 0; w < 5; w++ {
			w := w
			e.Go(fmt.Sprintf("w%d", w), func(p *Proc) {
				for {
					if len(st.items) == 0 {
						return
					}
					job := st.Get(p) // an item is buffered: no wait
					res.Acquire(p)
					p.Sleep(time.Duration(1+p.Rand().Intn(5)) * time.Millisecond)
					res.Release()
					trace = append(trace, fmt.Sprintf("w%d:j%d@%v", w, job, p.Now()))
				}
			})
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestEventsCounter(t *testing.T) {
	e := NewEnv(1)
	e.Go("p", func(p *Proc) { p.Sleep(time.Second) })
	e.Run()
	if e.Events() == 0 {
		t.Fatal("no events counted")
	}
}

func TestProcessPanicPropagatesToKernel(t *testing.T) {
	e := NewEnv(1)
	e.Go("bomber", func(p *Proc) {
		p.Sleep(time.Second)
		panic("boom")
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("process panic did not reach Run's caller")
		}
		if s, ok := r.(string); !ok || s != `sim: process "bomber" panicked: boom` {
			t.Fatalf("panic value = %v", r)
		}
	}()
	e.Run()
}

// TestCloseEndsParkedProcesses: processes a drained Run leaves parked on
// their coroutines (a signal nobody fires, a store nobody fills) are ended
// by Close — their deferred calls run, the code after the park does not,
// and their goroutines are gone — while ended and never-started processes
// are left alone.
func TestCloseEndsParkedProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	e := NewEnv(1)
	sig, box := NewSignal(e), NewStore[int](e, "box")
	var unwound, resumed int
	for i := range 3 {
		e.Go(fmt.Sprintf("waiter%d", i), func(p *Proc) {
			defer func() { unwound++ }()
			if i == 0 {
				box.Get(p)
			} else {
				sig.Wait(p)
			}
			resumed++
		})
	}
	e.Go("done", func(p *Proc) { p.Sleep(time.Second) })
	e.Run()
	if got := runtime.NumGoroutine() - before; got != 3 {
		t.Fatalf("%d goroutines after Run, want the 3 parked waiters'", got)
	}
	e.Close()
	if unwound != 3 || resumed != 0 {
		t.Errorf("Close ran %d deferred calls and resumed %d waiters, want 3 and 0", unwound, resumed)
	}
	if got := runtime.NumGoroutine() - before; got != 0 {
		t.Errorf("%d goroutines left after Close", got)
	}
	e.Close() // nothing left: a no-op
}
