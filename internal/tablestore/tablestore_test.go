package tablestore

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

func newTestStore() (*Store, *vclock.Manual) {
	clk := &vclock.Manual{}
	s := New(clk)
	if err := s.CreateTable("bench"); err != nil {
		panic(err)
	}
	return s, clk
}

func ent(pk, rk string, props map[string]Value) *Entity {
	return &Entity{PartitionKey: pk, RowKey: rk, Props: props}
}

// prop is r's property name, the zero Value when r has none.
func prop(r Row, name string) Value {
	v, _ := r.Prop(name)
	return v
}

func TestCreateDeleteTable(t *testing.T) {
	s := New(&vclock.Manual{})
	if err := s.CreateTable("MyTable"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("MyTable"); !storecommon.IsConflict(err) {
		t.Fatalf("duplicate = %v", err)
	}
	if err := s.CreateTable("1bad"); err == nil {
		t.Fatal("invalid name accepted")
	}
	if got := s.ListTables(""); len(got) != 1 || got[0] != "MyTable" {
		t.Fatal("table missing")
	}
	if err := s.DeleteTable("MyTable"); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteTable("MyTable"); !storecommon.IsNotFound(err) {
		t.Fatalf("double delete = %v", err)
	}
}

// TestListTablesSorted pins the listing order with enough names that an
// unsorted map walk cannot come out sorted by chance.
func TestListTablesSorted(t *testing.T) {
	s := New(&vclock.Manual{})
	var want []string
	for i := 11; i >= 0; i-- {
		name := fmt.Sprintf("T%02d", i)
		want = append([]string{name}, want...)
		if err := s.CreateTable(name); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ListTables("T"); !slices.Equal(got, want) {
		t.Fatalf("ListTables = %v, want %v", got, want)
	}
}

func TestInsertGetRoundTrip(t *testing.T) {
	s, _ := newTestStore()
	in := ent("p1", "r1", map[string]Value{
		"Name":   String("worker"),
		"Count":  Int32(7),
		"Big":    Int64(1 << 40),
		"Ratio":  Double(0.25),
		"Active": Bool(true),
		"Data":   Binary(payload.Synthetic(1, 64)),
	})
	stored, err := s.Insert("bench", in)
	if err != nil {
		t.Fatal(err)
	}
	if stored.ETag() == "" || stored.Timestamp().IsZero() {
		t.Fatalf("missing system properties: %+v", stored)
	}
	got, err := s.Get("bench", "p1", "r1")
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range in.Props {
		if v, _ := got.Prop(name); !v.Equal(want) {
			t.Errorf("prop %s = %#v, want %#v", name, v, want)
		}
	}
}

func TestInsertDuplicateFails(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.Insert("bench", ent("p", "r", nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("bench", ent("p", "r", nil)); !storecommon.IsConflict(err) {
		t.Fatalf("duplicate insert = %v", err)
	}
}

func TestInsertOrReplaceAndMerge(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.Insert("bench", ent("p", "r", map[string]Value{"A": Int32(1), "B": Int32(2)})); err != nil {
		t.Fatal(err)
	}
	// Replace drops unnamed properties.
	if _, err := s.InsertOrReplace("bench", ent("p", "r", map[string]Value{"A": Int32(10)})); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("bench", "p", "r")
	if _, ok := got.Prop("B"); ok {
		t.Fatal("replace preserved property B")
	}
	// Merge preserves them.
	if _, err := s.InsertOrMerge("bench", ent("p", "r", map[string]Value{"C": Int32(3)})); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get("bench", "p", "r")
	if prop(got, "A").I != 10 || prop(got, "C").I != 3 {
		t.Fatalf("merge result = %v", got.Clone().Props)
	}
	// Upsert on missing entity inserts.
	if _, err := s.InsertOrMerge("bench", ent("p", "new", map[string]Value{"X": Int32(1)})); err != nil {
		t.Fatal(err)
	}
}

func TestReplaceETagSemantics(t *testing.T) {
	s, _ := newTestStore()
	v1, err := s.Insert("bench", ent("p", "r", map[string]Value{"V": Int32(1)}))
	if err != nil {
		t.Fatal(err)
	}
	// Wildcard update always succeeds — the paper's unconditional update.
	v2, err := s.Replace("bench", ent("p", "r", map[string]Value{"V": Int32(2)}), storecommon.ETagAny)
	if err != nil {
		t.Fatal(err)
	}
	// Stale ETag fails.
	if _, err := s.Replace("bench", ent("p", "r", map[string]Value{"V": Int32(3)}), v1.ETag()); !storecommon.IsPreconditionFailed(err) {
		t.Fatalf("stale etag replace = %v", err)
	}
	// Matching ETag succeeds.
	if _, err := s.Replace("bench", ent("p", "r", map[string]Value{"V": Int32(3)}), v2.ETag()); err != nil {
		t.Fatal(err)
	}
	// Replace of a missing entity fails.
	if _, err := s.Replace("bench", ent("p", "absent", nil), storecommon.ETagAny); !storecommon.IsNotFound(err) {
		t.Fatalf("replace missing = %v", err)
	}
}

func TestMergePreservesProperties(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.Insert("bench", ent("p", "r", map[string]Value{"Keep": String("yes"), "Change": Int32(1)})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Merge("bench", ent("p", "r", map[string]Value{"Change": Int32(2)}), storecommon.ETagAny); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Get("bench", "p", "r")
	if prop(got, "Keep").S != "yes" || prop(got, "Change").I != 2 {
		t.Fatalf("merge = %v", got.Clone().Props)
	}
}

func TestDeleteEntity(t *testing.T) {
	s, _ := newTestStore()
	v1, _ := s.Insert("bench", ent("p", "r", nil))
	if err := s.Delete("bench", "p", "r", "bogus-etag"); !storecommon.IsPreconditionFailed(err) {
		t.Fatalf("delete with wrong etag = %v", err)
	}
	if err := s.Delete("bench", "p", "r", v1.ETag()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get("bench", "p", "r"); !storecommon.IsNotFound(err) {
		t.Fatalf("get after delete = %v", err)
	}
	if err := s.Delete("bench", "p", "r", storecommon.ETagAny); !storecommon.IsNotFound(err) {
		t.Fatalf("double delete = %v", err)
	}
}

func TestEntityValidation(t *testing.T) {
	s, _ := newTestStore()
	// Too many properties.
	many := map[string]Value{}
	for i := 0; i < storecommon.MaxEntityProperties+1; i++ {
		many[fmt.Sprintf("P%03d", i)] = Int32(1)
	}
	if _, err := s.Insert("bench", ent("p", "r", many)); storecommon.CodeOf(err) != storecommon.CodePropertyLimitExceeded {
		t.Fatalf("256 properties = %v", err)
	}
	// Too large.
	big := map[string]Value{"Data": Binary(payload.Zero(storecommon.MaxEntitySize + 1))}
	if _, err := s.Insert("bench", ent("p", "r", big)); storecommon.CodeOf(err) != storecommon.CodeEntityTooLarge {
		t.Fatalf("oversized = %v", err)
	}
	// Reserved property name.
	if _, err := s.Insert("bench", ent("p", "r", map[string]Value{"PartitionKey": String("x")})); err == nil {
		t.Fatal("reserved property accepted")
	}
	// Forbidden key characters.
	if _, err := s.Insert("bench", ent("p/1", "r", nil)); err == nil {
		t.Fatal("slash in partition key accepted")
	}
}

func TestQueryOrderingAndPaging(t *testing.T) {
	s, _ := newTestStore()
	for _, pk := range []string{"b", "a"} {
		for i := 2; i >= 0; i-- {
			if _, err := s.Insert("bench", ent(pk, fmt.Sprintf("r%d", i), nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	page1, err := s.Query("bench", "", 4, Continuation{})
	if err != nil {
		t.Fatal(err)
	}
	if len(page1.Entities) != 4 || page1.Next.IsZero() {
		t.Fatalf("page1 = %d entities, next=%v", len(page1.Entities), page1.Next)
	}
	wantOrder := []string{"a/r0", "a/r1", "a/r2", "b/r0"}
	for i, e := range page1.Entities {
		if got := e.PartitionKey() + "/" + e.RowKey(); got != wantOrder[i] {
			t.Fatalf("order[%d] = %s, want %s", i, got, wantOrder[i])
		}
	}
	page2, err := s.Query("bench", "", 4, page1.Next)
	if err != nil {
		t.Fatal(err)
	}
	if len(page2.Entities) != 2 || !page2.Next.IsZero() {
		t.Fatalf("page2 = %d entities, next=%v", len(page2.Entities), page2.Next)
	}
}

func TestQueryAllDrainsContinuations(t *testing.T) {
	s, _ := newTestStore()
	const n = 2500 // three service pages
	for i := 0; i < n; i++ {
		if _, err := s.Insert("bench", ent("p", fmt.Sprintf("r%06d", i), nil)); err != nil {
			t.Fatal(err)
		}
	}
	all, err := s.QueryAll("bench", "")
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("QueryAll = %d entities, want %d", len(all), n)
	}
}

func TestQueryWithFilter(t *testing.T) {
	s, _ := newTestStore()
	for i := 0; i < 10; i++ {
		props := map[string]Value{"Index": Int32(int32(i)), "Even": Bool(i%2 == 0)}
		if _, err := s.Insert("bench", ent(fmt.Sprintf("p%d", i%2), fmt.Sprintf("r%d", i), props)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.QueryAll("bench", "PartitionKey eq 'p0' and Index ge 4")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 { // indices 4, 6, 8
		t.Fatalf("filtered = %d entities, want 3", len(got))
	}
	// Bad filter surfaces InvalidQuery.
	if _, err := s.Query("bench", "Index eq eq 3", 0, Continuation{}); storecommon.CodeOf(err) != storecommon.CodeInvalidQuery {
		t.Fatalf("bad filter = %v", err)
	}
}

func TestPartitionAndEntityCounts(t *testing.T) {
	s, _ := newTestStore()
	for w := 0; w < 4; w++ {
		for r := 0; r < 5; r++ {
			if _, err := s.Insert("bench", ent(fmt.Sprintf("w%d", w), fmt.Sprintf("r%d", r), nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n, _ := s.PartitionCount("bench"); n != 4 {
		t.Fatalf("partitions = %d", n)
	}
	if n, _ := s.EntityCount("bench"); n != 20 {
		t.Fatalf("entities = %d", n)
	}
	// Deleting the last row of a partition removes the partition.
	for r := 0; r < 5; r++ {
		if err := s.Delete("bench", "w0", fmt.Sprintf("r%d", r), ""); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := s.PartitionCount("bench"); n != 3 {
		t.Fatalf("partitions after drain = %d", n)
	}
}

func TestTimestampAdvances(t *testing.T) {
	s, clk := newTestStore()
	v1, _ := s.Insert("bench", ent("p", "r", nil))
	clk.Advance(time.Minute)
	v2, _ := s.Replace("bench", ent("p", "r", nil), storecommon.ETagAny)
	if !v2.Timestamp().After(v1.Timestamp()) {
		t.Fatal("timestamp did not advance")
	}
	if v1.ETag() == v2.ETag() {
		t.Fatal("etag did not rotate")
	}
}

func TestStoredEntityIsIsolatedFromCaller(t *testing.T) {
	s, _ := newTestStore()
	props := map[string]Value{"A": Int32(1)}
	if _, err := s.Insert("bench", ent("p", "r", props)); err != nil {
		t.Fatal(err)
	}
	props["A"] = Int32(99) // mutate caller's map after insert
	got, _ := s.Get("bench", "p", "r")
	if prop(got, "A").I != 1 {
		t.Fatal("stored entity aliased caller's property map")
	}
	// Mutating a Clone of the returned row must not affect the store either.
	c := got.Clone()
	c.Props["A"] = Int32(50)
	again, _ := s.Get("bench", "p", "r")
	if prop(again, "A").I != 1 {
		t.Fatal("Clone aliased the stored property map")
	}
}

// TestRowReadsTheVersionItWasHanded: a Row taken before a Replace, a Merge,
// a batch or a Delete reads the version it was handed, and its Clone
// belongs to the caller, not to the store.
func TestRowReadsTheVersionItWasHanded(t *testing.T) {
	s, clk := newTestStore()
	if _, err := s.Insert("bench", ent("p", "r", map[string]Value{"V": Int32(1), "Keep": Bool(true)})); err != nil {
		t.Fatal(err)
	}
	held, _ := s.Get("bench", "p", "r")
	tag, stamp := held.ETag(), held.Timestamp()
	check := func(after string) {
		t.Helper()
		if prop(held, "V").I != 1 || !prop(held, "Keep").B || held.Len() != 2 ||
			held.ETag() != tag || !held.Timestamp().Equal(stamp) {
			t.Fatalf("after %s the held row reads %v, %s, %v", after, held.Clone().Props, held.ETag(), held.Timestamp())
		}
	}
	write := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		check(what)
		clk.Advance(time.Second)
	}
	_, err := s.Replace("bench", ent("p", "r", map[string]Value{"V": Int32(2)}), storecommon.ETagAny)
	write("Replace", err)
	_, err = s.Merge("bench", ent("p", "r", map[string]Value{"V": Int32(3), "Keep": Bool(false)}), storecommon.ETagAny)
	write("Merge", err)
	_, err = s.ExecuteBatch("bench", []BatchOp{{Kind: BatchInsertOrMerge, Entity: ent("p", "r", map[string]Value{"V": Int32(4)})}})
	write("a batch", err)
	write("Delete", s.Delete("bench", "p", "r", storecommon.ETagAny))

	c := held.Clone()
	c.Props["V"] = Int32(9)
	delete(c.Props, "Keep")
	check("editing its Clone")
	if _, err := s.Insert("bench", c); err != nil {
		t.Fatal(err)
	}
	c.Props["V"] = Int32(10)
	if got, _ := s.Get("bench", "p", "r"); prop(got, "V").I != 9 || got.Len() != 1 {
		t.Fatalf("store holds %v, want what the Clone held when inserted", got.Clone().Props)
	}
	check("inserting its Clone")
}

// TestRangeGoesInNameOrder: Range visits a row's properties in bytewise
// name order, each once, whether the row was written whole, merged over
// an older one or flattened by ReadOnly, and stops when f says so.
func TestRangeGoesInNameOrder(t *testing.T) {
	s, _ := newTestStore()
	props := map[string]Value{"b": Int32(1), "B": Int32(2), "a1": Int32(3), "a": Int32(4), "_": Int32(5), "\xff": Int32(6)}
	if _, err := s.Insert("bench", ent("p", "r", props)); err != nil {
		t.Fatal(err)
	}
	merged, err := s.Merge("bench", ent("p", "r", map[string]Value{"Z": Int32(7), "a": Int32(8)}), storecommon.ETagAny)
	if err != nil {
		t.Fatal(err)
	}
	for what, c := range map[string]struct {
		row  Row
		want []string
	}{
		"stored":   {merged, []string{"B", "Z", "_", "a", "a1", "b", "\xff"}},
		"ReadOnly": {ReadOnly(ent("p", "r", props)), []string{"B", "_", "a", "a1", "b", "\xff"}},
	} {
		var names []string
		c.row.Range(func(name string, _ Value) bool {
			names = append(names, name)
			return true
		})
		if !slices.Equal(names, c.want) {
			t.Errorf("%s row ranges %q, want %q", what, names, c.want)
		}
		n := 0
		c.row.Range(func(string, Value) bool { n++; return n < 2 })
		if n != 2 {
			t.Errorf("%s row: Range went on for %d calls after f returned false", what, n-2)
		}
	}
}
