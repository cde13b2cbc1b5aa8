package tablestore

import (
	"fmt"
	"testing"

	"azurebench/internal/payload"
	"azurebench/internal/vclock"
)

func benchStore(b *testing.B, rows int) *Store {
	b.Helper()
	s := New(vclock.Real{})
	if err := s.CreateTable("bench"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		e := &Entity{
			PartitionKey: fmt.Sprintf("p%d", i%8),
			RowKey:       fmt.Sprintf("r%06d", i),
			Props: map[string]Value{
				"N":    Int32(int32(i)),
				"Data": Binary(payload.Synthetic(uint64(i), 256)),
			},
		}
		if _, err := s.Insert("bench", e); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func BenchmarkInsert(b *testing.B) {
	s := New(vclock.Real{})
	if err := s.CreateTable("bench"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := &Entity{
			PartitionKey: "p",
			RowKey:       fmt.Sprintf("r%09d", i),
			Props:        map[string]Value{"Data": Binary(payload.Synthetic(uint64(i), 1024))},
		}
		if _, err := s.Insert("bench", e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPointGet(b *testing.B) {
	s := benchStore(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Get("bench", fmt.Sprintf("p%d", i%8), fmt.Sprintf("r%06d", i%10_000)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFilteredQuery(b *testing.B) {
	s := benchStore(b, 2_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Query("bench", "N ge 1990", 0, Continuation{})
		if err != nil || len(res.Entities) != 10 {
			b.Fatalf("query = %d entities, %v", len(res.Entities), err)
		}
	}
}

func BenchmarkFilterParse(b *testing.B) {
	const src = "PartitionKey eq 'worker-042' and (Size gt 1024 or Active eq true) and not Name eq 'x'"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseFilter(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBatchInsert100(b *testing.B) {
	s := New(vclock.Real{})
	if err := s.CreateTable("bench"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := make([]BatchOp, 100)
		for j := range ops {
			ops[j] = BatchOp{
				Kind:   BatchInsert,
				Entity: &Entity{PartitionKey: "p", RowKey: fmt.Sprintf("i%d-r%d", i, j)},
			}
		}
		if idx, err := s.ExecuteBatch("bench", ops); err != nil {
			b.Fatalf("batch failed at %d: %v", idx, err)
		}
	}
}

// The worst cases below are the ones the four BENCHMARK.json workloads do
// not reach; each pins one property of the key indexes (see DESIGN.md
// §16).

// bigStores caches the tables bigStore builds: the benchmark runner calls
// each benchmark several times while it settles on b.N, and a million
// inserts each time would be most of the run.
var bigStores = map[[2]int]*Store{}

// bigStore returns a table of rows entities without properties, spread
// over partitions p0000… in ascending key order. Callers share it, so
// they only read it, or write keys they remove again.
func bigStore(b *testing.B, partitions, rows int) *Store {
	b.Helper()
	if s := bigStores[[2]int{partitions, rows}]; s != nil {
		return s
	}
	s := New(vclock.Real{})
	if err := s.CreateTable("bench"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		e := &Entity{PartitionKey: fmt.Sprintf("p%04d", i%partitions), RowKey: fmt.Sprintf("r%08d", i)}
		if _, err := s.Insert("bench", e); err != nil {
			b.Fatal(err)
		}
	}
	bigStores[[2]int{partitions, rows}] = s
	return s
}

// BenchmarkRangeQueryTop10 is the YCSB-E short scan: ten rows of one
// partition from a row key on. Its cost must not depend on the table's
// size.
func BenchmarkRangeQueryTop10(b *testing.B) {
	for _, rows := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			const partitions = 8
			s := bigStore(b, partitions, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := (i * 7919) % (rows - 10*partitions)
				filter := fmt.Sprintf("PartitionKey eq 'p%04d' and RowKey ge 'r%08d'", start%partitions, start)
				res, err := s.Query("bench", filter, 10, Continuation{})
				if err != nil || len(res.Entities) != 10 {
					b.Fatalf("query = %d entities, %v", len(res.Entities), err)
				}
			}
		})
	}
}

// BenchmarkFirstPageOfLargeTable is an unfiltered top-10 of a million
// rows: the first page must not pay for the rest of the table.
func BenchmarkFirstPageOfLargeTable(b *testing.B) {
	s := bigStore(b, 1000, 1_000_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Query("bench", "", 10, Continuation{})
		if err != nil || len(res.Entities) != 10 || res.Next.IsZero() {
			b.Fatalf("query = %d entities, next %v, %v", len(res.Entities), res.Next, err)
		}
	}
}

// BenchmarkInsertRandomOrder inserts into one partition of 100 000 rows
// at uniformly random positions (and deletes again, so the size holds):
// the case where keeping row keys sorted costs the most.
func BenchmarkInsertRandomOrder(b *testing.B) {
	s := bigStore(b, 1, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rk := fmt.Sprintf("r%08d-x", (i*7919)%100_000)
		if _, err := s.Insert("bench", &Entity{PartitionKey: "p0000", RowKey: rk}); err != nil {
			b.Fatal(err)
		}
		if err := s.Delete("bench", "p0000", rk, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchInsert100IntoLargePartition: an entity-group transaction
// of 100 inserts must cost 100 inserts, not a copy of the 100 000 rows
// already in the partition.
func BenchmarkBatchInsert100IntoLargePartition(b *testing.B) {
	s := bigStore(b, 1, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ops := make([]BatchOp, 100)
		for j := range ops {
			rk := fmt.Sprintf("r%08d-b", (i*7919+j*977)%100_000)
			ops[j] = BatchOp{Kind: BatchInsert, Entity: &Entity{PartitionKey: "p0000", RowKey: rk}}
		}
		if idx, err := s.ExecuteBatch("bench", ops); err != nil {
			b.Fatalf("batch failed at %d: %v", idx, err)
		}
		b.StopTimer() // put the partition back as it was
		for j := range ops {
			ops[j].Kind = BatchDelete
		}
		if idx, err := s.ExecuteBatch("bench", ops); err != nil {
			b.Fatalf("clean-up batch failed at %d: %v", idx, err)
		}
		b.StartTimer()
	}
}
