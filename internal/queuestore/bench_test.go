package queuestore

import (
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/vclock"
)

func BenchmarkPutGetDeleteCycle(b *testing.B) {
	s := New(vclock.Real{})
	if err := s.CreateQueue("bench"); err != nil {
		b.Fatal(err)
	}
	body := payload.Synthetic(1, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put("bench", body, 0); err != nil {
			b.Fatal(err)
		}
		msg, ok, err := s.GetOne("bench", time.Minute)
		if err != nil || !ok {
			b.Fatal("get failed")
		}
		if err := s.Delete("bench", msg.ID, msg.PopReceipt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPeekWithDeepQueue(b *testing.B) {
	s := New(vclock.Real{})
	if err := s.CreateQueue("bench"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if _, err := s.Put("bench", payload.Zero(64), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, err := s.PeekOne("bench"); err != nil || !ok {
			b.Fatal("peek failed")
		}
	}
}

func BenchmarkApproximateCount(b *testing.B) {
	s := New(vclock.Real{})
	if err := s.CreateQueue("bench"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if _, err := s.Put("bench", payload.Zero(64), 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.ApproximateCount("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// The worst cases below are the ones the four BENCHMARK.json workloads do
// not reach; each pins one index (see DESIGN.md §16).

// BenchmarkGetBehindInvisiblePrefix: the first 10 000 messages are
// dequeued and never deleted, so every Get has to find the head of the
// visible messages behind them.
func BenchmarkGetBehindInvisiblePrefix(b *testing.B) {
	s := New(&vclock.Manual{})
	if err := s.CreateQueue("bench"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 10_000; i++ {
		if _, err := s.Put("bench", payload.Zero(64), 0); err != nil {
			b.Fatal(err)
		}
	}
	for hidden := 0; hidden < 10_000; {
		msgs, err := s.Get("bench", 32, time.Hour)
		if err != nil || len(msgs) == 0 {
			b.Fatalf("hiding the prefix: %d messages, %v", len(msgs), err)
		}
		hidden += len(msgs)
	}
	body := payload.Zero(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Put("bench", body, 0); err != nil {
			b.Fatal(err)
		}
		msg, ok, err := s.GetOne("bench", time.Minute)
		if err != nil || !ok {
			b.Fatal("get failed")
		}
		if err := s.Delete("bench", msg.ID, msg.PopReceipt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCycleMixedTTLs: a put/get/delete cycle on a queue held about
// 10 000 deep by ten interleaved TTLs. Each millisecond of virtual time
// two messages arrive and the head is consumed, so about one message a
// millisecond expires from somewhere in the middle of the queue — the
// case where a single earliest-expiry bound degenerates to a full scan
// on every call and an expiry heap does not.
func BenchmarkCycleMixedTTLs(b *testing.B) {
	clk := &vclock.Manual{}
	s := New(clk)
	if err := s.CreateQueue("bench"); err != nil {
		b.Fatal(err)
	}
	body := payload.Zero(64)
	n := 0
	cycle := func() {
		clk.Advance(time.Millisecond)
		for k := 0; k < 2; k++ {
			n++
			if _, err := s.Put("bench", body, time.Duration(n%10+1)*1250*time.Millisecond); err != nil {
				b.Fatal(err)
			}
		}
		msg, ok, err := s.GetOne("bench", time.Minute)
		if err != nil || !ok {
			b.Fatal("get failed")
		}
		if err := s.Delete("bench", msg.ID, msg.PopReceipt); err != nil {
			b.Fatal(err)
		}
	}
	for i := 0; i < 20_000; i++ { // reach the steady depth
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
	b.StopTimer()
	depth, err := s.ApproximateCount("bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(depth), "depth")
}
