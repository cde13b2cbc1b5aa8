package tablestore

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"azurebench/internal/payload"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// section is a Save section of one table holding one partition, filed
// under pk, with the given rows written as Save writes them.
func section(pk string, rows ...*Entity) []byte {
	var w snap.Writer
	w.U64(0) // the ETag counter
	w.Int(1)
	w.String("Crafted")
	w.Int(1)
	w.String(pk)
	w.Int(len(rows))
	for _, e := range rows {
		saveEntity(&w, newRow(e))
	}
	return w.Bytes()
}

func loadSection(data []byte) error {
	return New(&vclock.Manual{}).Load(snap.NewReader(data))
}

func TestLoadTakesWhatSaveWrites(t *testing.T) {
	if err := loadSection(section("p1", ent("p1", "r", map[string]Value{"A": Int32(1)}))); err != nil {
		t.Fatal(err)
	}
}

// A row filed under one partition that names another would be served by
// Get under the first and missed by every query on either.
func TestLoadRefusesRowFiledUnderAnotherPartition(t *testing.T) {
	if err := loadSection(section("p1", ent("p2", "r", nil))); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("Load = %v, want ErrCorrupt", err)
	}
}

func TestLoadRefusesUnknownPropertyType(t *testing.T) {
	data := section("p1", ent("p1", "r", map[string]Value{"A": {Type: TypeGUID + 1}}))
	if err := loadSection(data); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("Load = %v, want ErrCorrupt", err)
	}
}

// TestLoadRefusesEntitiesNoWriteCouldStore: what Load accepts is handed out
// as is, so it holds a loaded entity to the rules every write is held to.
func TestLoadRefusesEntitiesNoWriteCouldStore(t *testing.T) {
	many := map[string]Value{}
	for i := 0; i <= storecommon.MaxEntityProperties; i++ {
		many[fmt.Sprintf("P%03d", i)] = Int32(1)
	}
	for name, props := range map[string]map[string]Value{
		"reserved property name": {"RowKey": String("x")},
		"empty property name":    {"": String("x")},
		"too many properties":    many,
		"larger than 1 MB":       {"Data": Binary(payload.Zero(storecommon.MaxEntitySize + 1))},
	} {
		if err := loadSection(section("p1", ent("p1", "r", props))); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: Load = %v, want ErrCorrupt", name, err)
		}
	}
}

// A row holds its properties in name order and looks them up by binary
// search, so one whose names repeat or go out of order is not one Save
// wrote. The row here is written field by field, not through saveEntity,
// which could not write it.
func TestLoadRefusesPropertiesOutOfOrder(t *testing.T) {
	for name, props := range map[string][]string{
		"repeated name": {"A", "A"},
		"out of order":  {"B", "A"},
	} {
		var w snap.Writer
		w.U64(0) // the ETag counter
		w.Int(1)
		w.String("Crafted")
		w.Int(1)
		w.String("p1")
		w.Int(1)
		w.String("p1")
		w.String("r")
		w.Time(time.Time{})
		w.String("")
		w.Int(len(props))
		for i, p := range props {
			w.String(p)
			saveValue(&w, Int32(int32(i)))
		}
		if err := loadSection(w.Bytes()); !errors.Is(err, snap.ErrCorrupt) {
			t.Errorf("%s: Load = %v, want ErrCorrupt", name, err)
		}
	}
}
