package tablestore

import (
	"azurebench/internal/storecommon"
)

// BatchOpKind enumerates the operations allowed in an entity-group
// transaction.
type BatchOpKind int

// Batch operation kinds.
const (
	BatchInsert BatchOpKind = iota
	BatchInsertOrReplace
	BatchInsertOrMerge
	BatchReplace
	BatchMerge
	BatchDelete
)

// BatchOp is one operation of an entity-group transaction.
type BatchOp struct {
	Kind    BatchOpKind
	Entity  *Entity // for Delete only PartitionKey/RowKey are used
	IfMatch string  // ETag condition for Replace/Merge/Delete
}

// ExecuteBatch runs an entity-group transaction: up to 100 operations, all
// on the same partition, each row key at most once, executed atomically —
// if any operation fails, no operation is applied and the failing index is
// reported.
func (s *Store) ExecuteBatch(tableName string, ops []BatchOp) (failedIndex int, err error) {
	pk, failedIndex, err := checkBatchShape(ops)
	if err != nil {
		return failedIndex, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[tableName]
	if !ok {
		return -1, tableNotFound(tableName)
	}

	// Validate every operation against current state before mutating
	// anything (atomicity): batches are small, so the two-pass approach is
	// simpler than journaling undo records. Each row key appears at most
	// once, so no operation can see another's staged write, and reading the
	// live partition is reading the state the batch started from.
	var live map[string]*row
	if p := t.partitions[pk]; p != nil {
		live = p.rows
	}
	staged := make([]*row, len(ops)) // what op i leaves under its row key; nil = nothing
	for i, op := range ops {
		e := op.Entity
		var next *row
		if op.Kind != BatchDelete {
			next = newRow(e)
			if err := next.validate(); err != nil {
				return i, err
			}
		}
		old, exists := live[e.RowKey]
		switch op.Kind {
		case BatchInsert:
			if exists {
				return i, storecommon.Errf(storecommon.CodeEntityAlreadyExists, 409,
					"entity (%q,%q) already exists", pk, e.RowKey)
			}
		case BatchInsertOrReplace, BatchInsertOrMerge: // no precondition
		case BatchReplace, BatchMerge:
			if !exists {
				return i, entityNotFound(pk, e.RowKey)
			}
			if !storecommon.ETagMatches(op.IfMatch, old.ETag) {
				return i, updateConditionNotMet(pk, e.RowKey)
			}
		case BatchDelete:
			if !exists {
				return i, entityNotFound(pk, e.RowKey)
			}
			if !storecommon.ETagMatches(op.IfMatch, old.ETag) {
				return i, updateConditionNotMet(pk, e.RowKey)
			}
		default:
			return i, storecommon.Errf(storecommon.CodeInvalidInput, 400, "unknown batch kind %d", op.Kind)
		}
		if exists && (op.Kind == BatchInsertOrMerge || op.Kind == BatchMerge) {
			if next, err = next.merge(old); err != nil {
				return i, err
			}
		}
		staged[i] = next
	}

	// Commit in operation order, so the ETags a batch draws are a function
	// of the batch.
	for i, e := range staged {
		if e == nil {
			t.drop(pk, ops[i].Entity.RowKey)
			continue
		}
		s.stamp(e)
		t.put(e)
	}
	return -1, nil
}

// checkBatchShape applies the rules that need no table state: size, one
// partition, distinct row keys, payload. It returns the batch's partition
// key.
func checkBatchShape(ops []BatchOp) (pk string, failedIndex int, err error) {
	if len(ops) == 0 {
		return "", -1, storecommon.Errf(storecommon.CodeInvalidInput, 400, "empty batch")
	}
	if len(ops) > storecommon.MaxBatchOperations {
		return "", -1, storecommon.Errf(storecommon.CodeBatchTooManyOperations, 400,
			"batch of %d operations exceeds %d", len(ops), storecommon.MaxBatchOperations)
	}
	seen := make(map[string]bool, len(ops))
	var payloadSize int64
	for i, op := range ops {
		if op.Entity == nil {
			return "", i, storecommon.Errf(storecommon.CodeInvalidInput, 400, "batch op %d has no entity", i)
		}
		if i == 0 {
			pk = op.Entity.PartitionKey
		}
		if op.Entity.PartitionKey != pk {
			return "", i, storecommon.Errf(storecommon.CodeBatchPartitionMismatch, 400,
				"batch op %d targets partition %q, batch is for %q", i, op.Entity.PartitionKey, pk)
		}
		if seen[op.Entity.RowKey] {
			return "", i, storecommon.Errf(storecommon.CodeBatchDuplicateRowKey, 400,
				"row key %q appears twice in batch", op.Entity.RowKey)
		}
		seen[op.Entity.RowKey] = true
		payloadSize += op.Entity.Size()
	}
	if payloadSize > storecommon.MaxBatchPayload {
		return "", -1, storecommon.Errf(storecommon.CodeRequestBodyTooLarge, 413,
			"batch payload of %d bytes exceeds %d", payloadSize, storecommon.MaxBatchPayload)
	}
	return pk, -1, nil
}
