package tablestore

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// TestConcurrentInsertsAcrossPartitions: goroutines hammer distinct
// partitions; all rows must land. Run with -race.
func TestConcurrentInsertsAcrossPartitions(t *testing.T) {
	s := New(vclock.Real{})
	if err := s.CreateTable("bench"); err != nil {
		t.Fatal(err)
	}
	const workers, rows = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rows; i++ {
				e := &Entity{
					PartitionKey: fmt.Sprintf("w%d", w),
					RowKey:       fmt.Sprintf("r%03d", i),
					Props:        map[string]Value{"I": Int32(int32(i))},
				}
				if _, err := s.Insert("bench", e); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n, _ := s.EntityCount("bench"); n != workers*rows {
		t.Fatalf("count = %d, want %d", n, workers*rows)
	}
	if p, _ := s.PartitionCount("bench"); p != workers {
		t.Fatalf("partitions = %d", p)
	}
}

// TestOptimisticConcurrencyUnderRace: racing conditional updates on one
// entity — exactly one writer per ETag generation wins; counters add up.
func TestOptimisticConcurrencyUnderRace(t *testing.T) {
	s := New(vclock.Real{})
	if err := s.CreateTable("bench"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("bench", &Entity{
		PartitionKey: "p", RowKey: "r",
		Props: map[string]Value{"N": Int64(0)},
	}); err != nil {
		t.Fatal(err)
	}
	const writers, increments = 8, 20
	var conflicts atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; done < increments; {
				cur, err := s.Get("bench", "p", "r")
				if err != nil {
					t.Error(err)
					return
				}
				next := &Entity{
					PartitionKey: "p", RowKey: "r",
					Props: map[string]Value{"N": Int64(prop(cur, "N").I + 1)},
				}
				_, err = s.Replace("bench", next, cur.ETag())
				switch {
				case err == nil:
					done++
				case storecommon.IsPreconditionFailed(err):
					conflicts.Add(1) // lost the race; reread and retry
				default:
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	final, _ := s.Get("bench", "p", "r")
	if got := prop(final, "N").I; got != writers*increments {
		t.Fatalf("counter = %d, want %d (ETag protocol lost updates; %d conflicts seen)",
			got, writers*increments, conflicts.Load())
	}
	if conflicts.Load() == 0 {
		t.Log("note: no ETag conflicts observed (timing-dependent, not a failure)")
	}
}

// TestConcurrentQueriesDuringWrites: scans must not observe torn state or
// race with mutations.
func TestConcurrentQueriesDuringWrites(t *testing.T) {
	s := New(vclock.Real{})
	if err := s.CreateTable("bench"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			e := &Entity{PartitionKey: "p", RowKey: fmt.Sprintf("r%04d", i)}
			if _, err := s.Insert("bench", e); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				got, err := s.QueryAll("bench", "")
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) < prev {
					t.Errorf("entity count went backwards: %d -> %d", prev, len(got))
					return
				}
				prev = len(got)
			}
		}()
	}
	wg.Wait()
}

// TestConcurrentBatchesSamePartition: atomic batches racing on one
// partition; inserts of disjoint row-key ranges must all commit.
func TestConcurrentBatchesSamePartition(t *testing.T) {
	s := New(vclock.Real{})
	if err := s.CreateTable("bench"); err != nil {
		t.Fatal(err)
	}
	const batches = 8
	var wg sync.WaitGroup
	for b := 0; b < batches; b++ {
		b := b
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ops []BatchOp
			for i := 0; i < 10; i++ {
				ops = append(ops, BatchOp{
					Kind:   BatchInsert,
					Entity: &Entity{PartitionKey: "p", RowKey: fmt.Sprintf("b%d-r%d", b, i)},
				})
			}
			if idx, err := s.ExecuteBatch("bench", ops); err != nil {
				t.Errorf("batch %d failed at %d: %v", b, idx, err)
			}
		}()
	}
	wg.Wait()
	if n, _ := s.EntityCount("bench"); n != batches*10 {
		t.Fatalf("count = %d, want %d", n, batches*10)
	}
}
