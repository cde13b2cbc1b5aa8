package sim

import (
	"fmt"
	"testing"
	"time"
)

func TestResourceSerializesAtCapacityOne(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "srv", 1)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Use(p, time.Second)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	want := []time.Duration{1 * time.Second, 2 * time.Second, 3 * time.Second, 4 * time.Second}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish times = %v, want %v", finish, want)
		}
	}
}

func TestResourceParallelAtCapacityN(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "srv", 4)
	var finish []time.Duration
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Use(p, time.Second)
			finish = append(finish, p.Now())
		})
	}
	e.Run()
	for _, f := range finish {
		if f != time.Second {
			t.Fatalf("finish times = %v, want all 1s", finish)
		}
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "srv", 1)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.GoAt(time.Duration(i)*time.Millisecond, fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Acquire(p)
			order = append(order, i)
			p.Sleep(time.Second)
			r.Release()
		})
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("service order = %v, want FIFO", order)
		}
	}
}

func TestResourceReleaseWithoutAcquirePanics(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "srv", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Release without Acquire did not panic")
		}
	}()
	r.Release()
}

func TestResourceZeroCapacityPanics(t *testing.T) {
	e := NewEnv(1)
	defer func() {
		if recover() == nil {
			t.Fatal("NewResource(0) did not panic")
		}
	}()
	NewResource(e, "srv", 0)
}

func TestResourceStats(t *testing.T) {
	e := NewEnv(1)
	r := NewResource(e, "srv", 1)
	for i := 0; i < 3; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
			r.Use(p, time.Second)
		})
	}
	e.Run()
	st := r.Stats()
	if st.Acquired != 3 {
		t.Errorf("Acquired = %d, want 3", st.Acquired)
	}
	if st.Busy != 3*time.Second {
		t.Errorf("Busy = %v, want 3s", st.Busy)
	}
	// p1 waits 1s, p2 waits 2s => queue-time integral 3s.
	if st.QueueTime != 3*time.Second {
		t.Errorf("QueueTime = %v, want 3s", st.QueueTime)
	}
	if st.MaxQueue != 2 {
		t.Errorf("MaxQueue = %d, want 2", st.MaxQueue)
	}
	if st.InUse != 0 || st.QueueLen != 0 {
		t.Errorf("InUse/QueueLen = %d/%d, want 0/0", st.InUse, st.QueueLen)
	}
}

func TestResourceUtilizationUnderLoad(t *testing.T) {
	// Two servers, four clients each needing 1s: total busy time must be 4s
	// and the run must take 2s.
	e := NewEnv(1)
	r := NewResource(e, "srv", 2)
	for i := 0; i < 4; i++ {
		e.Go(fmt.Sprintf("p%d", i), func(p *Proc) { r.Use(p, time.Second) })
	}
	end := e.Run()
	if end != 2*time.Second {
		t.Fatalf("makespan = %v, want 2s", end)
	}
	if st := r.Stats(); st.Busy != 4*time.Second {
		t.Fatalf("busy = %v, want 4s", st.Busy)
	}
}
