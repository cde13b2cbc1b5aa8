package queuestore

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/vclock"
)

// allocsPerOp counts the allocations of op alone, averaged over runs
// calls, each prepared by setup (not counted).
func allocsPerOp(runs int, setup, op func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var ms runtime.MemStats
	var n uint64
	for i := 0; i < runs; i++ {
		setup()
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		op()
		runtime.ReadMemStats(&ms)
		n += ms.Mallocs - before
	}
	return float64(n) / float64(runs)
}

// TestOpAllocationCeilings: a point operation allocates what the engine
// keeps, and nothing else. A Put keeps the message's ID (the message goes
// into the slab), a GetOne or a getting Receive the pop receipt; PeekOne,
// a peeking Receive and Delete keep nothing.
func TestOpAllocationCeilings(t *testing.T) {
	s, clk := newTestStore()
	body := payload.Zero(1024)
	var msg Message
	put := func() {
		var err error
		if msg, err = s.Put("tasks", body, 0); err != nil {
			t.Fatal(err)
		}
	}
	get := func() {
		var ok bool
		var err error
		if msg, ok, err = s.GetOne("tasks", time.Minute); err != nil || !ok {
			t.Fatalf("GetOne: %v %v", ok, err)
		}
	}
	del := func() {
		if err := s.Delete("tasks", msg.ID, msg.PopReceipt); err != nil {
			t.Fatal(err)
		}
	}
	// Settle every index at the size of a one-message cycle.
	for i := 0; i < 100; i++ {
		clk.Advance(time.Millisecond)
		put()
		get()
		del()
	}
	// Each call starts from a queue holding nothing but what its setup
	// put there.
	drop := func() { s.ReplicaDelete("tasks", msg.ID) }
	for _, c := range []struct {
		name    string
		ceiling float64
		setup   func()
		op      func()
	}{
		{"Put", 1, drop, put},
		{"GetOne", 1, func() { drop(); put() }, get},
		{"PeekOne", 0, func() { drop(); put() }, func() { s.PeekOne("tasks") }},
		{"Receive", 1, func() { drop(); put() }, func() { s.Receive("tasks", false, time.Minute, &msg) }},
		{"Receive peek", 0, func() { drop(); put() }, func() { s.Receive("tasks", true, 0, &msg) }},
		{"Delete", 0, func() { drop(); put(); get() }, del},
	} {
		got := allocsPerOp(200, func() { clk.Advance(time.Millisecond); c.setup() }, c.op)
		if got > c.ceiling {
			t.Errorf("%s: %.2f allocations per call, ceiling %v", c.name, got, c.ceiling)
		}
	}
}

// The IDs and receipts are built in place; they read as the fmt forms
// they replaced, counters past 32 bits and the longest queue name included.
func TestIDsMatchTheirFmtForms(t *testing.T) {
	long := strings.Repeat("q", 63)
	for _, n := range []uint64{0, 1, 99, 100, 1 << 32, 1<<32 + 1, math.MaxUint64} {
		for _, name := range []string{"tasks", long} {
			if got, want := messageID(name, n), fmt.Sprintf("%s-msg-%d", name, n); got != want {
				t.Errorf("messageID = %q, want %q", got, want)
			}
		}
		s := New(&vclock.Manual{})
		s.popSeq = n - 1
		if got, want := s.nextPopReceipt(), fmt.Sprintf("pr-%d", n); got != want {
			t.Errorf("pop receipt = %q, want %q", got, want)
		}
	}
}

// TestOneMessageCallsAgreeWithBatchCalls: GetOne and PeekOne are Get and
// Peek of one message — the same message, the same receipt, the same draw
// from the non-FIFO window's generator.
func TestOneMessageCallsAgreeWithBatchCalls(t *testing.T) {
	cfg := Config{NonFIFOWindow: 4, Seed: 3}
	clkA, clkB := &vclock.Manual{}, &vclock.Manual{}
	a, b := NewWithConfig(clkA, cfg), NewWithConfig(clkB, cfg)
	for _, s := range []*Store{a, b} {
		if err := s.CreateQueue("tasks"); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 40; i++ {
			if _, err := s.Put("tasks", payload.Synthetic(uint64(i), 16), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	one := func(m Message, ok bool, err error) []Message {
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return nil
		}
		return []Message{m}
	}
	for step := 0; step < 60; step++ {
		clkA.Advance(7 * time.Second)
		clkB.Advance(7 * time.Second)
		peekA, err := a.Peek("tasks", 1)
		if err != nil {
			t.Fatal(err)
		}
		if peekB := one(b.PeekOne("tasks")); !reflect.DeepEqual(peekA, peekB) {
			t.Fatalf("step %d: Peek %+v, PeekOne %+v", step, peekA, peekB)
		}
		getA, err := a.Get("tasks", 1, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		getB := one(b.GetOne("tasks", 30*time.Second))
		if !reflect.DeepEqual(getA, getB) || a.rng.State() != b.rng.State() {
			t.Fatalf("step %d: Get %+v, GetOne %+v", step, getA, getB)
		}
		if len(getA) == 1 && step%3 == 0 {
			for _, s := range []*Store{a, b} {
				if err := s.Delete("tasks", getA[0].ID, getA[0].PopReceipt); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestMemoryStaysBounded: a queue that cycles messages through forever
// holds O(live messages), whatever its traffic. One straggler is never
// deleted, so the ID window cannot close behind it, and each Get hides its
// message for a little less time than the one before, so every hide goes
// to the heap rather than the run.
func TestMemoryStaysBounded(t *testing.T) {
	clk := &vclock.Manual{}
	s := New(clk)
	if err := s.CreateQueue("tasks"); err != nil {
		t.Fatal(err)
	}
	body := payload.Zero(16)
	if _, err := s.Put("tasks", body, 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetOne("tasks", 24*time.Hour); err != nil || !ok {
		t.Fatalf("straggler: %v %v", ok, err)
	}
	q := s.queues["tasks"]
	const cycles = 100_000
	for i := 0; i < cycles; i++ {
		clk.Advance(time.Millisecond)
		if _, err := s.Put("tasks", body, time.Hour); err != nil {
			t.Fatal(err)
		}
		vis := time.Hour - time.Duration(i)*2*time.Millisecond
		msg, ok, err := s.GetOne("tasks", vis)
		if err != nil || !ok {
			t.Fatalf("cycle %d: GetOne %v %v", i, ok, err)
		}
		if hidden := &q.orders[byHidden]; i > 0 && hidden.heap[0] != q.entry(byHidden, hidden.heap[0].slot) {
			t.Fatalf("cycle %d: the hide did not go to the heap", i)
		}
		if err := s.Delete("tasks", msg.ID, msg.PopReceipt); err != nil {
			t.Fatal(err)
		}
		if i%997 != 0 && i != cycles-1 {
			continue
		}
		if err := q.check(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		bound := 4*q.live + 4
		entries := 0
		for o := range q.orders {
			entries += len(q.orders[o].run) - q.orders[o].head + len(q.orders[o].heap)
		}
		if w := len(q.win) - q.off; w > 2*q.live+64 || len(q.strays) > q.live || entries > 3*bound ||
			len(q.chunks) > q.live/chunkSize+1 || len(q.free) > bound {
			t.Fatalf("cycle %d: %d live messages held in a window of %d, %d strays, %d entries, %d chunks, %d free slots",
				i, q.live, w, len(q.strays), entries, len(q.chunks), len(q.free))
		}
	}
	if q.live != 1 || len(q.strays) != 1 {
		t.Fatalf("%d messages left, %d strays: the straggler alone should be, below the window", q.live, len(q.strays))
	}
}
