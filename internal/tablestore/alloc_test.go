package tablestore

import (
	"testing"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// TestGetAllocationCeiling holds a point read of a one-property entity to
// the four allocations of its clone: the Entity, the Props map header and
// group, and the boxed Value. The simulated and live read ceilings are
// measured against the engine's own count, so this is the one that sees
// the engine itself grow.
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
	const ceiling = 4
	got := testing.AllocsPerRun(200, func() {
		if _, err := s.Get("tbl", "pk", "row"); err != nil {
			t.Fatal(err)
		}
	})
	if got > ceiling {
		t.Fatalf("Get allocates %.0f times per call, ceiling %d", got, ceiling)
	}
}
