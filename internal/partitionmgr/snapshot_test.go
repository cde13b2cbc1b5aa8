package partitionmgr

import (
	"errors"
	"testing"

	"azurebench/internal/sim"
	snap "azurebench/internal/snapshot"
)

// loadCrafted saves m after corrupt has edited it and loads the section
// into a fresh master of m's configuration; a panic fails the test.
func loadCrafted(t *testing.T, m *Master, corrupt func(*Master)) (err error) {
	t.Helper()
	corrupt(m)
	var w snap.Writer
	m.Save(&w)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Load panicked: %v", r)
		}
	}()
	return New(m.cfg, sim.NewRand(1)).Load(snap.NewReader(w.Bytes()))
}

func TestLoadRefusesFleetSizeOutsideOneToMax(t *testing.T) {
	if err := loadCrafted(t, New(dynCfg(), sim.NewRand(1)), func(*Master) {}); err != nil {
		t.Fatalf("an untouched section: %v", err)
	}
	for _, servers := range []int{0, -3, dynCfg().MaxServers + 1, 1 << 40} {
		err := loadCrafted(t, New(dynCfg(), sim.NewRand(1)), func(m *Master) { m.servers = servers })
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("servers %d: Load = %v, want ErrCorrupt", servers, err)
		}
	}
}

func TestLoadRefusesRangeOwnerOutsideFleet(t *testing.T) {
	for _, owner := range []int{-1, dynCfg().Servers, 1 << 40} {
		m := New(dynCfg(), sim.NewRand(1))
		m.Lookup("orders", "pk")
		err := loadCrafted(t, m, func(m *Master) { m.tables["orders"].ranges[0].owner = owner })
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("owner %d: Load = %v, want ErrCorrupt", owner, err)
		}
	}
}

func TestLoadRefusesPlacementOutsideFleet(t *testing.T) {
	for _, idx := range []int{-1, 4, 1 << 40} {
		m := New(Config{Servers: 4}, nil)
		m.Place("orders", "pk")
		err := loadCrafted(t, m, func(m *Master) { m.place["orders|pk"] = idx })
		if !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("placement %d: Load = %v, want ErrCorrupt", idx, err)
		}
	}
}
