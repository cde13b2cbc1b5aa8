package tablestore

import (
	"sort"

	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// model is the reference implementation the indexed engine is proven
// against: the engine as it stood before the key indexes. Tables are
// maps of maps; Query collects and sorts every partition key and every
// row key on every call and evaluates the filter on every row from the
// continuation mark on; ExecuteBatch copies the partition before
// validating. It is O(table) everywhere and obviously right, which is
// the point. The script tests in script_test.go drive it and Store with
// the same operations under one clock and require identical results,
// ETags and Save bytes.
//
// One deliberate difference from the old engine: a batch commits — and
// so draws its ETags — in operation order. The old engine ranged over a
// map there, which made the ETags of one batch's rows depend on map
// iteration order; no two runs agreed, so there was nothing to preserve.
type model struct {
	clock  vclock.Clock
	etags  storecommon.ETagGen
	tables map[string]map[string]map[string]*Entity // table → partition key → row key
}

func newModel(clock vclock.Clock) *model {
	return &model{clock: clock, tables: map[string]map[string]map[string]*Entity{}}
}

func (s *model) CreateTable(name string) error {
	if err := storecommon.ValidateTableName(name); err != nil {
		return err
	}
	if _, ok := s.tables[name]; ok {
		return storecommon.Errf(storecommon.CodeTableAlreadyExists, 409, "table %q already exists", name)
	}
	s.tables[name] = map[string]map[string]*Entity{}
	return nil
}

func (s *model) DeleteTable(name string) error {
	if _, ok := s.tables[name]; !ok {
		return tableNotFound(name)
	}
	delete(s.tables, name)
	return nil
}

func (s *model) stamp(e *Entity) {
	e.Timestamp = s.clock.Now()
	e.ETag = s.etags.Next(e.Timestamp)
}

func (s *model) find(tableName, pk, rk string) (*Entity, error) {
	t, ok := s.tables[tableName]
	if !ok {
		return nil, tableNotFound(tableName)
	}
	e, ok := t[pk][rk]
	if !ok {
		return nil, entityNotFound(pk, rk)
	}
	return e, nil
}

// validateEntity holds e to what the engine lets a write store.
func validateEntity(e *Entity) error { return newRow(e).validate() }

// mergeInto carries over the properties of old that e does not name.
func mergeInto(e, old *Entity) {
	for k, v := range old.Props {
		if _, shadowed := e.Props[k]; !shadowed {
			e.Props[k] = v
		}
	}
}

func (s *model) insert(tableName string, e *Entity, mode insertMode) (Row, error) {
	if err := validateEntity(e); err != nil {
		return Row{}, err
	}
	t, ok := s.tables[tableName]
	if !ok {
		return Row{}, tableNotFound(tableName)
	}
	old, exists := t[e.PartitionKey][e.RowKey]
	if exists && mode == insertStrict {
		return Row{}, storecommon.Errf(storecommon.CodeEntityAlreadyExists, 409,
			"entity (%q,%q) already exists", e.PartitionKey, e.RowKey)
	}
	stored := e.Clone()
	if exists && mode == insertMerge {
		mergeInto(stored, old)
		if err := validateEntity(stored); err != nil {
			return Row{}, err
		}
	}
	s.stamp(stored)
	if t[e.PartitionKey] == nil {
		t[e.PartitionKey] = map[string]*Entity{}
	}
	t[e.PartitionKey][e.RowKey] = stored
	return ReadOnly(stored), nil
}

func (s *model) update(tableName string, e *Entity, ifMatch string, merge bool) (Row, error) {
	if err := validateEntity(e); err != nil {
		return Row{}, err
	}
	old, err := s.find(tableName, e.PartitionKey, e.RowKey)
	if err != nil {
		return Row{}, err
	}
	if !storecommon.ETagMatches(ifMatch, old.ETag) {
		return Row{}, updateConditionNotMet(e.PartitionKey, e.RowKey)
	}
	stored := e.Clone()
	if merge {
		mergeInto(stored, old)
		if err := validateEntity(stored); err != nil {
			return Row{}, err
		}
	}
	s.stamp(stored)
	s.tables[tableName][e.PartitionKey][e.RowKey] = stored
	return ReadOnly(stored), nil
}

func (s *model) Delete(tableName, pk, rk, ifMatch string) error {
	old, err := s.find(tableName, pk, rk)
	if err != nil {
		return err
	}
	if !storecommon.ETagMatches(ifMatch, old.ETag) {
		return updateConditionNotMet(pk, rk)
	}
	t := s.tables[tableName]
	delete(t[pk], rk)
	if len(t[pk]) == 0 {
		delete(t, pk)
	}
	return nil
}

func (s *model) Get(tableName, pk, rk string) (Row, error) {
	e, err := s.find(tableName, pk, rk)
	if err != nil {
		return Row{}, err
	}
	return ReadOnly(e), nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Query is the old engine's: sort everything, filter everything.
func (s *model) Query(tableName, filter string, top int, from Continuation) (QueryResult, error) {
	var expr *FilterExpr
	if filter != "" {
		var err error
		expr, err = ParseFilter(filter)
		if err != nil {
			return QueryResult{}, err
		}
	}
	if top <= 0 || top > storecommon.MaxQueryPageSize {
		top = storecommon.MaxQueryPageSize
	}
	t, ok := s.tables[tableName]
	if !ok {
		return QueryResult{}, tableNotFound(tableName)
	}
	var res QueryResult
	for _, pk := range sortedKeys(t) {
		if pk < from.NextPartitionKey {
			continue
		}
		for _, rk := range sortedKeys(t[pk]) {
			if pk == from.NextPartitionKey && rk < from.NextRowKey {
				continue
			}
			e := t[pk][rk]
			if expr != nil {
				match, err := expr.Eval(ReadOnly(e))
				if err != nil {
					return QueryResult{}, err
				}
				if !match {
					continue
				}
			}
			if len(res.Entities) == top {
				res.Next = Continuation{NextPartitionKey: pk, NextRowKey: rk}
				return res, nil
			}
			res.Entities = append(res.Entities, ReadOnly(e))
		}
	}
	return res, nil
}

// ExecuteBatch is the old engine's: copy the partition, validate against
// the copy, commit.
func (s *model) ExecuteBatch(tableName string, ops []BatchOp) (int, error) {
	pk, failed, err := checkBatchShape(ops)
	if err != nil {
		return failed, err
	}
	t, ok := s.tables[tableName]
	if !ok {
		return -1, tableNotFound(tableName)
	}
	current := map[string]*Entity{}
	for rk, e := range t[pk] {
		current[rk] = e
	}
	staged := make([]*Entity, len(ops)) // nil = delete
	for i, op := range ops {
		e := op.Entity
		if op.Kind != BatchDelete {
			if err := validateEntity(e); err != nil {
				return i, err
			}
		}
		old, exists := current[e.RowKey]
		switch op.Kind {
		case BatchInsert:
			if exists {
				return i, storecommon.Errf(storecommon.CodeEntityAlreadyExists, 409,
					"entity (%q,%q) already exists", pk, e.RowKey)
			}
			staged[i] = e.Clone()
		case BatchInsertOrReplace:
			staged[i] = e.Clone()
		case BatchInsertOrMerge:
			merged := e.Clone()
			if exists {
				mergeInto(merged, old)
				if err := validateEntity(merged); err != nil {
					return i, err
				}
			}
			staged[i] = merged
		case BatchReplace, BatchMerge:
			if !exists {
				return i, entityNotFound(pk, e.RowKey)
			}
			if !storecommon.ETagMatches(op.IfMatch, old.ETag) {
				return i, updateConditionNotMet(e.PartitionKey, e.RowKey)
			}
			next := e.Clone()
			if op.Kind == BatchMerge {
				mergeInto(next, old)
				if err := validateEntity(next); err != nil {
					return i, err
				}
			}
			staged[i] = next
		case BatchDelete:
			if !exists {
				return i, entityNotFound(pk, e.RowKey)
			}
			if !storecommon.ETagMatches(op.IfMatch, old.ETag) {
				return i, updateConditionNotMet(e.PartitionKey, e.RowKey)
			}
		default:
			return i, storecommon.Errf(storecommon.CodeInvalidInput, 400, "unknown batch kind %d", op.Kind)
		}
	}
	if t[pk] == nil {
		t[pk] = map[string]*Entity{}
	}
	for i, e := range staged {
		if e == nil {
			delete(t[pk], ops[i].Entity.RowKey)
			continue
		}
		s.stamp(e)
		t[pk][e.RowKey] = e
	}
	if len(t[pk]) == 0 {
		delete(t, pk)
	}
	return -1, nil
}

func (s *model) EntityCount(tableName string) (int, error) {
	t, ok := s.tables[tableName]
	if !ok {
		return 0, tableNotFound(tableName)
	}
	n := 0
	for _, rows := range t {
		n += len(rows)
	}
	return n, nil
}

func (s *model) PartitionCount(tableName string) (int, error) {
	t, ok := s.tables[tableName]
	if !ok {
		return 0, tableNotFound(tableName)
	}
	return len(t), nil
}

func (s *model) Save(w *snap.Writer) {
	s.etags.Save(w)
	w.Int(len(s.tables))
	for _, tn := range sortedKeys(s.tables) {
		t := s.tables[tn]
		w.String(tn)
		w.Int(len(t))
		for _, pk := range sortedKeys(t) {
			w.String(pk)
			w.Int(len(t[pk]))
			for _, rk := range sortedKeys(t[pk]) {
				saveEntity(w, newRow(t[pk][rk]))
			}
		}
	}
}
