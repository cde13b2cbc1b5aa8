package queuestore

import (
	"fmt"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

func newTestStore() (*Store, *vclock.Manual) {
	clk := &vclock.Manual{}
	s := New(clk)
	if err := s.CreateQueue("tasks"); err != nil {
		panic(err)
	}
	return s, clk
}

func TestCreateDeleteQueue(t *testing.T) {
	s := New(&vclock.Manual{})
	if err := s.CreateQueue("my-queue"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateQueue("my-queue"); !storecommon.IsConflict(err) {
		t.Fatalf("duplicate = %v", err)
	}
	if err := s.CreateQueue("Bad Name"); err == nil {
		t.Fatal("invalid name accepted")
	}
	if got := s.ListQueues("my-"); len(got) != 1 || got[0] != "my-queue" {
		t.Fatal("queue missing")
	}
	if err := s.DeleteQueue("my-queue"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteQueue("my-queue"); !storecommon.IsNotFound(err) {
		t.Fatalf("double delete = %v", err)
	}
}

func TestCreateQueueIfNotExists(t *testing.T) {
	s := New(&vclock.Manual{})
	created, err := s.CreateQueueIfNotExists("abc")
	if err != nil || !created {
		t.Fatalf("first = %v,%v", created, err)
	}
	created, err = s.CreateQueueIfNotExists("abc")
	if err != nil || created {
		t.Fatalf("second = %v,%v", created, err)
	}
}

func TestListQueues(t *testing.T) {
	s := New(&vclock.Manual{})
	for _, n := range []string{"aq-2", "aq-1", "other"} {
		if err := s.CreateQueue(n); err != nil {
			t.Fatal(err)
		}
	}
	got := s.ListQueues("aq-")
	if len(got) != 2 || got[0] != "aq-1" || got[1] != "aq-2" {
		t.Fatalf("ListQueues = %v", got)
	}
}

func TestPutGetDeleteRoundTrip(t *testing.T) {
	s, _ := newTestStore()
	body := payload.String("work item 1")
	if _, err := s.Put("tasks", body, 0); err != nil {
		t.Fatal(err)
	}
	m, ok, err := s.GetOne("tasks", 0)
	if err != nil || !ok {
		t.Fatalf("GetOne = %v, %v", ok, err)
	}
	if !payload.Equal(m.Body, body) {
		t.Fatal("body mismatch")
	}
	if m.DequeueCount != 1 {
		t.Fatalf("DequeueCount = %d", m.DequeueCount)
	}
	if err := s.Delete("tasks", m.ID, m.PopReceipt); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.ApproximateCount("tasks"); n != 0 {
		t.Fatalf("count after delete = %d", n)
	}
}

func TestGetHidesMessage(t *testing.T) {
	s, clk := newTestStore()
	if _, err := s.Put("tasks", payload.String("x"), 0); err != nil {
		t.Fatal(err)
	}
	m1, ok, _ := s.GetOne("tasks", 10*time.Second)
	if !ok {
		t.Fatal("first get empty")
	}
	// A second consumer sees nothing while the message is invisible.
	if _, ok, _ := s.GetOne("tasks", 10*time.Second); ok {
		t.Fatal("message visible to second consumer during visibility timeout")
	}
	if _, ok, _ := s.PeekOne("tasks"); ok {
		t.Fatal("peek sees invisible message")
	}
	// But the count still includes it (barrier semantics).
	if n, _ := s.ApproximateCount("tasks"); n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
	// After the timeout it reappears with a higher dequeue count.
	clk.Advance(11 * time.Second)
	m2, ok, _ := s.GetOne("tasks", 10*time.Second)
	if !ok {
		t.Fatal("message did not reappear")
	}
	if m2.ID != m1.ID || m2.DequeueCount != 2 {
		t.Fatalf("reappeared message = %+v", m2)
	}
	// The old pop receipt is now stale.
	if err := s.Delete("tasks", m1.ID, m1.PopReceipt); !storecommon.IsPreconditionFailed(err) {
		t.Fatalf("stale receipt delete = %v", err)
	}
	if err := s.Delete("tasks", m2.ID, m2.PopReceipt); err != nil {
		t.Fatal(err)
	}
}

func TestPeekDoesNotAlterState(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.Put("tasks", payload.String("x"), 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		m, ok, err := s.PeekOne("tasks")
		if err != nil || !ok {
			t.Fatalf("peek %d failed: %v", i, err)
		}
		if m.DequeueCount != 0 || m.PopReceipt != "" {
			t.Fatalf("peeked message mutated: %+v", m)
		}
	}
	// Message is still gettable by everyone.
	if _, ok, _ := s.GetOne("tasks", 0); !ok {
		t.Fatal("get after peeks failed")
	}
}

func TestBatchSizeBound(t *testing.T) {
	s, _ := newTestStore()
	for i := 0; i < 40; i++ {
		if _, err := s.Put("tasks", payload.String("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, max := range []int{-1, 0, 33, 1_000_000} {
		if _, err := s.Get("tasks", max, 0); storecommon.CodeOf(err) != storecommon.CodeOutOfRangeQueryParameterValue {
			t.Errorf("Get(%d) = %v, want OutOfRangeQueryParameterValue", max, err)
		}
		if _, err := s.Peek("tasks", max); storecommon.CodeOf(err) != storecommon.CodeOutOfRangeQueryParameterValue {
			t.Errorf("Peek(%d) = %v, want OutOfRangeQueryParameterValue", max, err)
		}
	}
	if msgs, err := s.Peek("tasks", 32); err != nil || len(msgs) != 32 {
		t.Fatalf("Peek(32) = %d messages, %v", len(msgs), err)
	}
	if msgs, err := s.Get("tasks", 32, 0); err != nil || len(msgs) != 32 {
		t.Fatalf("Get(32) = %d messages, %v: the refused calls must hide nothing", len(msgs), err)
	}
}

func TestFIFOOrderWithWindowOne(t *testing.T) {
	s, _ := newTestStore()
	for i := 0; i < 10; i++ {
		if _, err := s.Put("tasks", payload.String(fmt.Sprintf("m%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		m, ok, _ := s.GetOne("tasks", time.Minute)
		if !ok {
			t.Fatalf("queue dry at %d", i)
		}
		if got := string(m.Body.Materialize()); got != fmt.Sprintf("m%d", i) {
			t.Fatalf("got %q at position %d", got, i)
		}
	}
}

func TestNonFIFOWindowReorders(t *testing.T) {
	clk := &vclock.Manual{}
	s := NewWithConfig(clk, Config{NonFIFOWindow: 8, Seed: 3})
	if err := s.CreateQueue("q-1"); err != nil {
		t.Fatal(err)
	}
	const n = 64
	for i := 0; i < n; i++ {
		if _, err := s.Put("q-1", payload.String(fmt.Sprintf("m%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	inOrder := true
	for i := 0; i < n; i++ {
		m, ok, _ := s.GetOne("q-1", time.Hour)
		if !ok {
			t.Fatalf("queue dry at %d", i)
		}
		if string(m.Body.Materialize()) != fmt.Sprintf("m%d", i) {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("64 messages delivered in exact FIFO order despite window 8 (selection not applied?)")
	}
}

func TestBatchGet(t *testing.T) {
	s, _ := newTestStore()
	for i := 0; i < 5; i++ {
		if _, err := s.Put("tasks", payload.String("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	msgs, err := s.Get("tasks", 3, time.Minute)
	if err != nil || len(msgs) != 3 {
		t.Fatalf("batch get = %d msgs, %v", len(msgs), err)
	}
	msgs, err = s.Get("tasks", 10, time.Minute)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("second batch = %d msgs, %v", len(msgs), err)
	}
}

func TestMessageTTLExpiry(t *testing.T) {
	s, clk := newTestStore()
	if _, err := s.Put("tasks", payload.String("short"), time.Minute); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Put("tasks", payload.String("long"), time.Hour); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Minute)
	if n, _ := s.ApproximateCount("tasks"); n != 1 {
		t.Fatalf("count = %d, want 1 after expiry", n)
	}
	m, ok, _ := s.GetOne("tasks", 0)
	if !ok || string(m.Body.Materialize()) != "long" {
		t.Fatalf("survivor = %+v ok=%v", m, ok)
	}
}

func TestDefaultTTLIsOneWeek(t *testing.T) {
	s, clk := newTestStore()
	m, err := s.Put("tasks", payload.String("x"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Expires.Sub(m.Inserted); got != storecommon.MaxMessageTTL {
		t.Fatalf("default ttl = %v", got)
	}
	clk.Advance(storecommon.MaxMessageTTL + time.Second)
	if n, _ := s.ApproximateCount("tasks"); n != 0 {
		t.Fatalf("message survived a week: count=%d", n)
	}
}

func TestMessageSizeLimit(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.Put("tasks", payload.Zero(storecommon.MaxMessagePayload), 0); err != nil {
		t.Fatalf("48KB message rejected: %v", err)
	}
	_, err := s.Put("tasks", payload.Zero(storecommon.MaxMessagePayload+1), 0)
	if storecommon.CodeOf(err) != storecommon.CodeMessageTooLarge {
		t.Fatalf("oversized = %v", err)
	}
}

func TestUpdateMessage(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.Put("tasks", payload.String("v1"), 0); err != nil {
		t.Fatal(err)
	}
	m, _, _ := s.GetOne("tasks", time.Minute)
	m2, err := s.Update("tasks", m.ID, m.PopReceipt, payload.String("v2"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if m2.PopReceipt == m.PopReceipt {
		t.Fatal("update did not rotate pop receipt")
	}
	// Old receipt is stale now.
	if err := s.Delete("tasks", m.ID, m.PopReceipt); !storecommon.IsPreconditionFailed(err) {
		t.Fatalf("stale receipt = %v", err)
	}
	if err := s.Delete("tasks", m2.ID, m2.PopReceipt); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteValidation(t *testing.T) {
	s, _ := newTestStore()
	if err := s.Delete("absent", "id", "pr"); !storecommon.IsNotFound(err) {
		t.Fatalf("missing queue = %v", err)
	}
	if err := s.Delete("tasks", "nope", "pr"); !storecommon.IsNotFound(err) {
		t.Fatalf("missing message = %v", err)
	}
	if _, err := s.Put("tasks", payload.String("x"), 0); err != nil {
		t.Fatal(err)
	}
	m, _, _ := s.GetOne("tasks", time.Minute)
	if err := s.Delete("tasks", m.ID, "wrong"); !storecommon.IsPreconditionFailed(err) {
		t.Fatalf("wrong receipt = %v", err)
	}
}

func TestClearMessages(t *testing.T) {
	s, _ := newTestStore()
	for i := 0; i < 3; i++ {
		if _, err := s.Put("tasks", payload.String("x"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ClearMessages("tasks"); err != nil {
		t.Fatal(err)
	}
	if n, _ := s.ApproximateCount("tasks"); n != 0 {
		t.Fatalf("count = %d after clear", n)
	}
}

func TestVisibilityValidation(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.Get("tasks", 1, -time.Second); storecommon.CodeOf(err) != storecommon.CodeInvalidVisibility {
		t.Fatalf("negative visibility = %v", err)
	}
	if _, err := s.Get("tasks", 1, storecommon.MaxVisibilityTimeout+time.Hour); storecommon.CodeOf(err) != storecommon.CodeInvalidVisibility {
		t.Fatalf("huge visibility = %v", err)
	}
}

// TestNoDoubleVisibility is the core safety invariant: between a Get and
// the expiry of its visibility timeout, no other Get may observe the same
// message.
func TestNoDoubleVisibility(t *testing.T) {
	s, clk := newTestStore()
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := s.Put("tasks", payload.String(fmt.Sprintf("m%d", i)), 0); err != nil {
			t.Fatal(err)
		}
	}
	held := map[string]time.Time{} // message id -> visibility expiry
	got := 0
	for got < n {
		now := clk.Now()
		for id, exp := range held {
			if !exp.After(now) {
				delete(held, id)
			}
		}
		m, ok, err := s.GetOne("tasks", 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			if exp, dup := held[m.ID]; dup {
				t.Fatalf("message %s visible twice (held until %v, now %v)", m.ID, exp, now)
			}
			held[m.ID] = m.NextVisible
			if err := s.Delete("tasks", m.ID, m.PopReceipt); err != nil {
				t.Fatal(err)
			}
			delete(held, m.ID)
			got++
		}
		clk.Advance(137 * time.Millisecond)
	}
}

func TestBarrierCountingPattern(t *testing.T) {
	// Algorithm 2: workers put one message per phase and poll the count.
	s, _ := newTestStore()
	const workers = 8
	for phase := 1; phase <= 3; phase++ {
		for w := 0; w < workers; w++ {
			if _, err := s.Put("tasks", payload.String("arrived"), 0); err != nil {
				t.Fatal(err)
			}
		}
		n, err := s.ApproximateCount("tasks")
		if err != nil {
			t.Fatal(err)
		}
		if n != workers*phase {
			t.Fatalf("phase %d count = %d, want %d", phase, n, workers*phase)
		}
	}
}
