// Package tablestore implements the Windows Azure Table storage engine:
// schemaless tables of entities addressed by (PartitionKey, RowKey), with
// typed properties, optimistic concurrency via ETags (including the "*"
// wildcard the paper's benchmark uses for unconditional updates), an
// OData-subset query filter language, continuation tokens, and atomic
// entity-group batch transactions within a partition.
package tablestore

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// Entity is a table row: two keys plus up to 255 typed properties.
// PartitionKey decides placement (entities sharing it live on one
// partition server); together with RowKey it forms the unique primary key.
// It is the caller's form of a row; the store files its own copy.
type Entity struct {
	PartitionKey string
	RowKey       string
	Timestamp    time.Time
	ETag         string
	Props        map[string]Value
}

// Clone returns a copy its caller owns and may change: a new Props map
// over the same Values, which are immutable.
func (e *Entity) Clone() *Entity {
	props := make(map[string]Value, len(e.Props))
	for k, v := range e.Props {
		props[k] = v
	}
	c := *e
	c.Props = props
	return &c
}

// Size returns the entity's size against the 1 MB limit.
func (e *Entity) Size() int64 {
	n := int64(len(e.PartitionKey) + len(e.RowKey))
	for k, v := range e.Props {
		n += int64(len(k)) + v.Size()
	}
	return n
}

// Prop is one named property of a stored row.
type Prop struct {
	Name string
	Value
}

// row is an entity as the store files it: its properties sorted by name,
// no name twice, and its size measured once.
type row struct {
	PartitionKey string
	RowKey       string
	Timestamp    time.Time
	ETag         string
	size         int64
	props        []Prop
}

// newRow flattens e into a row the store owns; the properties take one
// allocation.
func newRow(e *Entity) *row {
	r := &row{PartitionKey: e.PartitionKey, RowKey: e.RowKey, Timestamp: e.Timestamp, ETag: e.ETag,
		props: make([]Prop, 0, len(e.Props))}
	for name, v := range e.Props {
		r.props = append(r.props, Prop{name, v})
	}
	slices.SortFunc(r.props, byName)
	r.measure()
	return r
}

func byName(a, b Prop) int { return strings.Compare(a.Name, b.Name) }

// measure records the row's size against the 1 MB limit.
func (r *row) measure() {
	r.size = int64(len(r.PartitionKey) + len(r.RowKey))
	for _, p := range r.props {
		r.size += int64(len(p.Name)) + p.Size()
	}
}

// merge returns what merging r into old stores: r's properties, and each
// of old's that r does not name. The union can break a limit neither
// broke alone, so it is validated again.
func (r *row) merge(old *row) (*row, error) {
	m := *r
	m.props = append(make([]Prop, 0, len(r.props)+len(old.props)), r.props...)
	for _, p := range old.props {
		if _, shadowed := (Row{r}).Prop(p.Name); !shadowed {
			m.props = append(m.props, p)
		}
	}
	slices.SortFunc(m.props, byName)
	m.measure()
	return &m, m.validate()
}

// Row is a read-only handle on a row the store holds. The store never
// edits a row once it has filed it — every write files a new one and a
// delete only unlinks it — so a Row reads the version it was handed for
// as long as it is kept, with no copy and no lock, whatever is written
// after. Clone gives a copy the caller owns.
type Row struct{ e *row }

// ReadOnly flattens e into a Row, as the store would file it.
func ReadOnly(e *Entity) Row { return Row{newRow(e)} }

// The row's keys, system properties, size and number of properties.
func (r Row) PartitionKey() string { return r.e.PartitionKey }
func (r Row) RowKey() string       { return r.e.RowKey }
func (r Row) Timestamp() time.Time { return r.e.Timestamp }
func (r Row) ETag() string         { return r.e.ETag }
func (r Row) Size() int64          { return r.e.size }
func (r Row) Len() int             { return len(r.e.props) }

// Prop returns the named property and whether the row has it.
func (r Row) Prop(name string) (Value, bool) {
	i, ok := slices.BinarySearchFunc(r.e.props, name,
		func(p Prop, name string) int { return strings.Compare(p.Name, name) })
	if !ok {
		return Value{}, false
	}
	return r.e.props[i].Value, true
}

// Range calls f on each property in name order (bytewise), until f
// returns false.
func (r Row) Range(f func(name string, v Value) bool) {
	for _, p := range r.e.props {
		if !f(p.Name, p.Value) {
			return
		}
	}
}

// Clone returns a copy of the row that the caller owns and may change.
func (r Row) Clone() *Entity {
	props := make(map[string]Value, len(r.e.props))
	for _, p := range r.e.props {
		props[p.Name] = p.Value
	}
	return &Entity{PartitionKey: r.e.PartitionKey, RowKey: r.e.RowKey, Timestamp: r.e.Timestamp, ETag: r.e.ETag, Props: props}
}

// Store is an in-memory table storage account. All methods are safe for
// concurrent use.
type Store struct {
	mu     sync.RWMutex
	clock  vclock.Clock
	etags  storecommon.ETagGen
	tables map[string]*table
}

// table and partition each pair a map, for point access, with a sorted
// index over the map's keys, for Query.
type table struct {
	name       string
	partitions map[string]*partition
	pks        keyIndex
}

type partition struct {
	rows map[string]*row
	rks  keyIndex
}

// put files e under its keys, creating the partition on first use.
func (t *table) put(e *row) {
	p := t.partitions[e.PartitionKey]
	if p == nil {
		p = &partition{rows: map[string]*row{}}
		t.partitions[e.PartitionKey] = p
		t.pks.insert(e.PartitionKey)
	}
	if _, exists := p.rows[e.RowKey]; !exists {
		p.rks.insert(e.RowKey)
	}
	p.rows[e.RowKey] = e
}

// drop removes the entity (pk, rk), which must exist, and its partition
// with the last row.
func (t *table) drop(pk, rk string) {
	p := t.partitions[pk]
	delete(p.rows, rk)
	p.rks.remove(rk)
	if len(p.rows) == 0 {
		delete(t.partitions, pk)
		t.pks.remove(pk)
	}
}

// New creates an empty table store.
func New(clock vclock.Clock) *Store {
	return &Store{clock: clock, tables: map[string]*table{}}
}

// CreateTable creates a table.
func (s *Store) CreateTable(name string) error {
	if err := storecommon.ValidateTableName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; ok {
		return storecommon.Errf(storecommon.CodeTableAlreadyExists, 409, "table %q already exists", name)
	}
	s.tables[name] = &table{name: name, partitions: map[string]*partition{}}
	return nil
}

// CreateTableIfNotExists creates name if absent; reports whether created.
func (s *Store) CreateTableIfNotExists(name string) (bool, error) {
	err := s.CreateTable(name)
	if storecommon.IsConflict(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// DeleteTable removes a table and all entities.
func (s *Store) DeleteTable(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.tables[name]; !ok {
		return tableNotFound(name)
	}
	delete(s.tables, name)
	return nil
}

// ListTables returns table names with the given prefix, sorted.
func (s *Store) ListTables(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for name := range s.tables {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Insert adds a new entity; it fails with EntityAlreadyExists when the
// (PartitionKey, RowKey) pair is taken.
func (s *Store) Insert(tableName string, e *Entity) (Row, error) {
	return s.mutateInsert(tableName, e, insertStrict)
}

// InsertOrReplace upserts the entity, replacing all properties.
func (s *Store) InsertOrReplace(tableName string, e *Entity) (Row, error) {
	return s.mutateInsert(tableName, e, insertReplace)
}

// InsertOrMerge upserts the entity; existing properties not named in e are
// preserved.
func (s *Store) InsertOrMerge(tableName string, e *Entity) (Row, error) {
	return s.mutateInsert(tableName, e, insertMerge)
}

type insertMode int

const (
	insertStrict insertMode = iota
	insertReplace
	insertMerge
)

func (s *Store) mutateInsert(tableName string, e *Entity, mode insertMode) (Row, error) {
	stored := newRow(e)
	if err := stored.validate(); err != nil {
		return Row{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[tableName]
	if !ok {
		return Row{}, tableNotFound(tableName)
	}
	var old *row
	exists := false
	if p := t.partitions[e.PartitionKey]; p != nil {
		old, exists = p.rows[e.RowKey]
	}
	if exists && mode == insertStrict {
		return Row{}, storecommon.Errf(storecommon.CodeEntityAlreadyExists, 409,
			"entity (%q,%q) already exists", e.PartitionKey, e.RowKey)
	}
	if exists && mode == insertMerge {
		var err error
		if stored, err = stored.merge(old); err != nil {
			return Row{}, err
		}
	}
	s.stamp(stored)
	t.put(stored)
	return Row{stored}, nil
}

// Replace updates an existing entity, replacing all properties. ifMatch is
// an ETag condition: the stored ETag, or "*" for unconditional replacement
// (what the paper's update benchmark does). Empty means unconditional too.
func (s *Store) Replace(tableName string, e *Entity, ifMatch string) (Row, error) {
	return s.mutateUpdate(tableName, e, ifMatch, false)
}

// Merge updates an existing entity, preserving properties not named in e.
func (s *Store) Merge(tableName string, e *Entity, ifMatch string) (Row, error) {
	return s.mutateUpdate(tableName, e, ifMatch, true)
}

func (s *Store) mutateUpdate(tableName string, e *Entity, ifMatch string, merge bool) (Row, error) {
	stored := newRow(e)
	if err := stored.validate(); err != nil {
		return Row{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[tableName]
	if !ok {
		return Row{}, tableNotFound(tableName)
	}
	old, err := t.find(e.PartitionKey, e.RowKey)
	if err != nil {
		return Row{}, err
	}
	if !storecommon.ETagMatches(ifMatch, old.ETag) {
		return Row{}, updateConditionNotMet(e.PartitionKey, e.RowKey)
	}
	if merge {
		if stored, err = stored.merge(old); err != nil {
			return Row{}, err
		}
	}
	s.stamp(stored)
	t.put(stored)
	return Row{stored}, nil
}

// Delete removes an entity under an ETag condition ("" or "*" for
// unconditional).
func (s *Store) Delete(tableName, partitionKey, rowKey, ifMatch string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[tableName]
	if !ok {
		return tableNotFound(tableName)
	}
	old, err := t.find(partitionKey, rowKey)
	if err != nil {
		return err
	}
	if !storecommon.ETagMatches(ifMatch, old.ETag) {
		return updateConditionNotMet(partitionKey, rowKey)
	}
	t.drop(partitionKey, rowKey)
	return nil
}

// Get retrieves one entity by its primary key (a point query).
func (s *Store) Get(tableName, partitionKey, rowKey string) (Row, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tableName]
	if !ok {
		return Row{}, tableNotFound(tableName)
	}
	e, err := t.find(partitionKey, rowKey)
	return Row{e}, err
}

// Continuation marks where a query page ended; pass it back to resume.
// The zero value means "from the beginning".
type Continuation struct {
	NextPartitionKey string
	NextRowKey       string
}

// IsZero reports whether the continuation is the beginning-of-table mark.
func (c Continuation) IsZero() bool { return c.NextPartitionKey == "" && c.NextRowKey == "" }

// QueryResult is one page of query results.
type QueryResult struct {
	Entities []Row
	// Next is non-zero when more results are available.
	Next Continuation
}

// Query scans the table in (PartitionKey, RowKey) order, returning
// entities matching filter (an OData-subset expression; empty matches
// everything). top bounds the page size; 0 means the service maximum
// (1000). Matching resumes from the continuation mark.
//
// The scan seeks to the first key the continuation mark and the filter's
// leading key comparisons allow and stops at the last (see keyBounds);
// every entity in between is still put to the whole filter.
func (s *Store) Query(tableName, filter string, top int, from Continuation) (QueryResult, error) {
	var pkRange, rkRange keyRange
	var expr *FilterExpr
	if filter != "" {
		var err error
		expr, err = ParseFilter(filter)
		if err != nil {
			return QueryResult{}, err
		}
		pkRange, rkRange = expr.keyBounds()
	}
	if top <= 0 || top > storecommon.MaxQueryPageSize {
		top = storecommon.MaxQueryPageSize
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tableName]
	if !ok {
		return QueryResult{}, tableNotFound(tableName)
	}
	pkRange.atLeast(from.NextPartitionKey)
	var res QueryResult
	for pi := t.pks.seek(pkRange.lo); pi.valid() && !pkRange.past(pi.key()); pi.next() {
		pk := pi.key()
		p := t.partitions[pk]
		rows := rkRange
		if pk == from.NextPartitionKey {
			rows.atLeast(from.NextRowKey)
		}
		for ri := p.rks.seek(rows.lo); ri.valid() && !rows.past(ri.key()); ri.next() {
			rk := ri.key()
			e := p.rows[rk]
			if expr != nil {
				match, err := expr.Eval(Row{e})
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
			res.Entities = append(res.Entities, Row{e})
		}
	}
	return res, nil
}

// QueryAll drains a query across continuation pages.
func (s *Store) QueryAll(tableName, filter string) ([]Row, error) {
	var out []Row
	var from Continuation
	for {
		page, err := s.Query(tableName, filter, 0, from)
		if err != nil {
			return nil, err
		}
		out = append(out, page.Entities...)
		if page.Next.IsZero() {
			return out, nil
		}
		from = page.Next
	}
}

// PartitionCount returns the number of non-empty partitions in the table
// (placement information used by the simulated cloud).
func (s *Store) PartitionCount(tableName string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tableName]
	if !ok {
		return 0, tableNotFound(tableName)
	}
	return len(t.partitions), nil
}

// EntityCount returns the total number of entities in the table.
func (s *Store) EntityCount(tableName string) (int, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[tableName]
	if !ok {
		return 0, tableNotFound(tableName)
	}
	n := 0
	for _, p := range t.partitions {
		n += len(p.rows)
	}
	return n, nil
}

func (t *table) find(pk, rk string) (*row, error) {
	p, ok := t.partitions[pk]
	if !ok {
		return nil, entityNotFound(pk, rk)
	}
	e, ok := p.rows[rk]
	if !ok {
		return nil, entityNotFound(pk, rk)
	}
	return e, nil
}

func (s *Store) stamp(e *row) {
	e.Timestamp = s.clock.Now()
	e.ETag = s.etags.Next(e.Timestamp)
}

// validate holds the row to what the service lets a write store.
func (e *row) validate() error {
	if err := storecommon.ValidateKey(e.PartitionKey, "partition"); err != nil {
		return err
	}
	if err := storecommon.ValidateKey(e.RowKey, "row"); err != nil {
		return err
	}
	if len(e.props) > storecommon.MaxEntityProperties {
		return storecommon.Errf(storecommon.CodePropertyLimitExceeded, 400,
			"%d properties exceed the %d limit", len(e.props), storecommon.MaxEntityProperties)
	}
	if e.size > storecommon.MaxEntitySize {
		return storecommon.Errf(storecommon.CodeEntityTooLarge, 400,
			"entity of %d bytes exceeds %d", e.size, storecommon.MaxEntitySize)
	}
	for _, p := range e.props {
		if p.Name == "" || p.Name == "PartitionKey" || p.Name == "RowKey" || p.Name == "Timestamp" {
			return storecommon.Errf(storecommon.CodeInvalidInput, 400, "reserved or empty property name %q", p.Name)
		}
	}
	return nil
}

func tableNotFound(name string) error {
	return storecommon.Errf(storecommon.CodeTableNotFound, 404, "table %q not found", name)
}

func entityNotFound(pk, rk string) error {
	return storecommon.Errf(storecommon.CodeEntityNotFound, 404, "entity (%q,%q) not found", pk, rk)
}

func updateConditionNotMet(pk, rk string) error {
	return storecommon.Errf(storecommon.CodeUpdateConditionNotMet, 412,
		"etag condition failed for (%q,%q)", pk, rk)
}
