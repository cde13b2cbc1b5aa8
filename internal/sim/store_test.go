package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestStorePutThenGet(t *testing.T) {
	e := NewEnv(1)
	s := NewStore[string](e, "s")
	var got string
	e.Go("p", func(p *Proc) {
		s.Put("hello")
		got = s.Get(p)
	})
	e.Run()
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestStoreGetBlocksUntilPut(t *testing.T) {
	e := NewEnv(1)
	s := NewStore[int](e, "s")
	var gotAt time.Duration
	e.Go("consumer", func(p *Proc) {
		_ = s.Get(p)
		gotAt = p.Now()
	})
	e.Go("producer", func(p *Proc) {
		p.Sleep(3 * time.Second)
		s.Put(1)
	})
	e.Run()
	if gotAt != 3*time.Second {
		t.Fatalf("got at %v, want 3s", gotAt)
	}
}

func TestStoreFIFOItems(t *testing.T) {
	e := NewEnv(1)
	s := NewStore[int](e, "s")
	var got []int
	e.Go("p", func(p *Proc) {
		for i := 0; i < 5; i++ {
			s.Put(i)
		}
		for i := 0; i < 5; i++ {
			got = append(got, s.Get(p))
		}
	})
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("got %v, want ascending", got)
		}
	}
}

func TestStoreFIFOWaiters(t *testing.T) {
	e := NewEnv(1)
	s := NewStore[int](e, "s")
	var order []string
	for i := 0; i < 3; i++ {
		i := i
		e.GoAt(time.Duration(i)*time.Millisecond, fmt.Sprintf("c%d", i), func(p *Proc) {
			v := s.Get(p)
			order = append(order, fmt.Sprintf("c%d<-%d", i, v))
		})
	}
	e.GoAt(time.Second, "producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			s.Put(i)
		}
	})
	e.Run()
	want := []string{"c0<-0", "c1<-1", "c2<-2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestStoreCounters(t *testing.T) {
	e := NewEnv(1)
	s := NewStore[int](e, "s")
	e.Go("p", func(p *Proc) {
		s.Put(1)
		s.Put(2)
		_ = s.Get(p)
	})
	e.Run()
	if len(s.items) != 1 {
		t.Fatalf("two puts and a get leave %d items, want 1", len(s.items))
	}
}

func TestSignalBroadcast(t *testing.T) {
	e := NewEnv(1)
	sig := NewSignal(e)
	var woke []time.Duration
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("w%d", i), func(p *Proc) {
			sig.Wait(p)
			woke = append(woke, p.Now())
		})
	}
	e.Go("firer", func(p *Proc) {
		p.Sleep(5 * time.Second)
		sig.Fire()
	})
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke %d procs, want 3", len(woke))
	}
	for _, w := range woke {
		if w != 5*time.Second {
			t.Fatalf("woke at %v, want 5s", w)
		}
	}
	if !sig.fired {
		t.Fatal("signal not marked fired")
	}
	// Waiting after fire returns immediately.
	var after bool
	e.Go("late", func(p *Proc) {
		sig.Wait(p)
		after = true
	})
	e.Run()
	if !after {
		t.Fatal("late waiter blocked on fired signal")
	}
}

func TestSignalDoubleFireNoop(t *testing.T) {
	e := NewEnv(1)
	sig := NewSignal(e)
	sig.Fire()
	sig.Fire() // must not panic
}
