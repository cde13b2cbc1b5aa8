package tablestore

import (
	"fmt"
	"testing"

	"azurebench/internal/storecommon"
)

func TestBatchInsertAtomicSuccess(t *testing.T) {
	s, _ := newTestStore()
	var ops []BatchOp
	for i := 0; i < 10; i++ {
		ops = append(ops, BatchOp{Kind: BatchInsert, Entity: ent("p", fmt.Sprintf("r%d", i), map[string]Value{"I": Int32(int32(i))})})
	}
	idx, err := s.ExecuteBatch("bench", ops)
	if err != nil || idx != -1 {
		t.Fatalf("batch = %d, %v", idx, err)
	}
	if n, _ := s.EntityCount("bench"); n != 10 {
		t.Fatalf("count = %d", n)
	}
}

func TestBatchAtomicRollbackOnFailure(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.Insert("bench", ent("p", "taken", nil)); err != nil {
		t.Fatal(err)
	}
	ops := []BatchOp{
		{Kind: BatchInsert, Entity: ent("p", "new1", nil)},
		{Kind: BatchInsert, Entity: ent("p", "taken", nil)}, // conflicts
		{Kind: BatchInsert, Entity: ent("p", "new2", nil)},
	}
	idx, err := s.ExecuteBatch("bench", ops)
	if !storecommon.IsConflict(err) {
		t.Fatalf("batch err = %v", err)
	}
	if idx != 1 {
		t.Fatalf("failing index = %d, want 1", idx)
	}
	// Nothing from the batch may have been applied.
	if _, err := s.Get("bench", "p", "new1"); !storecommon.IsNotFound(err) {
		t.Fatal("partial batch applied (new1 exists)")
	}
	if _, err := s.Get("bench", "p", "new2"); !storecommon.IsNotFound(err) {
		t.Fatal("partial batch applied (new2 exists)")
	}
}

func TestBatchRejectsCrossPartition(t *testing.T) {
	s, _ := newTestStore()
	ops := []BatchOp{
		{Kind: BatchInsert, Entity: ent("p1", "r", nil)},
		{Kind: BatchInsert, Entity: ent("p2", "r", nil)},
	}
	idx, err := s.ExecuteBatch("bench", ops)
	if storecommon.CodeOf(err) != storecommon.CodeBatchPartitionMismatch || idx != 1 {
		t.Fatalf("cross-partition batch = %d, %v", idx, err)
	}
}

func TestBatchRejectsDuplicateRowKey(t *testing.T) {
	s, _ := newTestStore()
	ops := []BatchOp{
		{Kind: BatchInsert, Entity: ent("p", "r", nil)},
		{Kind: BatchInsertOrReplace, Entity: ent("p", "r", nil)},
	}
	_, err := s.ExecuteBatch("bench", ops)
	if storecommon.CodeOf(err) != storecommon.CodeBatchDuplicateRowKey {
		t.Fatalf("duplicate row batch = %v", err)
	}
}

func TestBatchSizeLimits(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.ExecuteBatch("bench", nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	// An operation without an entity is refused by index, the first one
	// included (it used to be dereferenced for its partition key).
	if idx, err := s.ExecuteBatch("bench", []BatchOp{{Kind: BatchInsert}}); storecommon.CodeOf(err) != storecommon.CodeInvalidInput || idx != 0 {
		t.Fatalf("batch with a nil entity = %d, %v", idx, err)
	}
	var ops []BatchOp
	for i := 0; i < storecommon.MaxBatchOperations+1; i++ {
		ops = append(ops, BatchOp{Kind: BatchInsert, Entity: ent("p", fmt.Sprintf("r%d", i), nil)})
	}
	if _, err := s.ExecuteBatch("bench", ops); storecommon.CodeOf(err) != storecommon.CodeBatchTooManyOperations {
		t.Fatalf("oversized batch = %v", err)
	}
}

func TestBatchMixedOperations(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.Insert("bench", ent("p", "upd", map[string]Value{"V": Int32(1), "Keep": Bool(true)})); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert("bench", ent("p", "del", nil)); err != nil {
		t.Fatal(err)
	}
	ops := []BatchOp{
		{Kind: BatchInsert, Entity: ent("p", "ins", map[string]Value{"V": Int32(9)})},
		{Kind: BatchMerge, Entity: ent("p", "upd", map[string]Value{"V": Int32(2)}), IfMatch: storecommon.ETagAny},
		{Kind: BatchDelete, Entity: ent("p", "del", nil), IfMatch: storecommon.ETagAny},
	}
	idx, err := s.ExecuteBatch("bench", ops)
	if err != nil || idx != -1 {
		t.Fatalf("mixed batch = %d, %v", idx, err)
	}
	if _, err := s.Get("bench", "p", "ins"); err != nil {
		t.Fatal("insert not applied")
	}
	upd, _ := s.Get("bench", "p", "upd")
	if prop(upd, "V").I != 2 || !prop(upd, "Keep").B {
		t.Fatalf("merge result = %v", upd.Clone().Props)
	}
	if _, err := s.Get("bench", "p", "del"); !storecommon.IsNotFound(err) {
		t.Fatal("delete not applied")
	}
}

func TestBatchETagConditionFailureRollsBack(t *testing.T) {
	s, _ := newTestStore()
	v1, _ := s.Insert("bench", ent("p", "r", map[string]Value{"V": Int32(1)}))
	// Rotate the etag.
	if _, err := s.Replace("bench", ent("p", "r", map[string]Value{"V": Int32(2)}), storecommon.ETagAny); err != nil {
		t.Fatal(err)
	}
	ops := []BatchOp{
		{Kind: BatchInsert, Entity: ent("p", "other", nil)},
		{Kind: BatchReplace, Entity: ent("p", "r", map[string]Value{"V": Int32(3)}), IfMatch: v1.ETag()},
	}
	idx, err := s.ExecuteBatch("bench", ops)
	if !storecommon.IsPreconditionFailed(err) || idx != 1 {
		t.Fatalf("batch = %d, %v", idx, err)
	}
	if _, err := s.Get("bench", "p", "other"); !storecommon.IsNotFound(err) {
		t.Fatal("rollback failed: other exists")
	}
	got, _ := s.Get("bench", "p", "r")
	if prop(got, "V").I != 2 {
		t.Fatalf("entity mutated by failed batch: %v", got.Clone().Props)
	}
}
