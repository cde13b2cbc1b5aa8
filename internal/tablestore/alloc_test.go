package tablestore

import (
	"testing"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// TestGetAllocationCeiling holds a point read to no allocation at all: Get
// hands out the stored row behind a Row, never a copy of it.
func TestGetAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	s := New(&vclock.Manual{})
	if err := s.CreateTable("tbl"); err != nil {
		t.Fatal(err)
	}
	row := &Entity{PartitionKey: "pk", RowKey: "row", Props: map[string]Value{
		"Data": Binary(payload.Zero(storecommon.KB)),
	}}
	if _, err := s.Insert("tbl", row); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if _, err := s.Get("tbl", "pk", "row"); err != nil {
			t.Fatal(err)
		}
	})
	if got > 0 {
		t.Fatalf("Get allocates %.0f times per call, ceiling 0", got)
	}
}

// TestWriteAllocationCeilings holds a write of a one-property entity to
// what filing it takes: the row, its property slice and the ETag it is
// stamped with. The caller's map is flattened once, never cloned.
func TestWriteAllocationCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation ceilings do not hold under the race detector")
	}
	s := New(&vclock.Manual{})
	if err := s.CreateTable("tbl"); err != nil {
		t.Fatal(err)
	}
	e := &Entity{PartitionKey: "pk", RowKey: "row", Props: map[string]Value{
		"Data": Binary(payload.Zero(storecommon.KB)),
	}}
	// A second row keeps the partition alive while the first is deleted
	// and inserted again.
	for _, rk := range []string{"other", "row"} {
		if _, err := s.Insert("tbl", &Entity{PartitionKey: "pk", RowKey: rk}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		call    func() error
	}{
		{"Delete then Insert", 3, func() error {
			if err := s.Delete("tbl", "pk", "row", storecommon.ETagAny); err != nil {
				return err
			}
			_, err := s.Insert("tbl", e)
			return err
		}},
		{"Replace", 3, func() error {
			_, err := s.Replace("tbl", e, storecommon.ETagAny)
			return err
		}},
	} {
		got := testing.AllocsPerRun(200, func() {
			if err := c.call(); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.ceiling {
			t.Errorf("%s allocates %.0f times per call, ceiling %.0f", c.name, got, c.ceiling)
		}
	}
}
