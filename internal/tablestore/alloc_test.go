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
