package tablestore

import (
	"fmt"

	"azurebench/internal/payload"
	snap "azurebench/internal/snapshot"
)

// Save appends the full account state — every table, partition, entity
// and typed property — with all map levels in sorted key order so
// identical states encode identically.
func (s *Store) Save(w *snap.Writer) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.etags.Save(w)
	tableNames := snap.SortedKeys(s.tables)
	w.Int(len(tableNames))
	for _, tn := range tableNames {
		t := s.tables[tn]
		w.String(t.name)
		w.Int(len(t.partitions))
		for pi := t.pks.seek(""); pi.valid(); pi.next() {
			p := t.partitions[pi.key()]
			w.String(pi.key())
			w.Int(len(p.rows))
			for ri := p.rks.seek(""); ri.valid(); ri.next() {
				saveEntity(w, p.rows[ri.key()])
			}
		}
	}
}

// Load restores an account saved by Save, replacing all live state. Save
// writes partitions and rows in key order, which is what lets Load rebuild
// the key indexes by appending; a section that is not in order is not one
// Save wrote.
func (s *Store) Load(r *snap.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.etags.Load(r); err != nil {
		return err
	}
	nt := r.Count()
	tables := make(map[string]*table, nt)
	for i := 0; i < nt; i++ {
		t := &table{name: r.String()}
		np := r.Count()
		t.partitions = make(map[string]*partition, np)
		for j := 0; j < np; j++ {
			pk := r.String()
			nr := r.Count()
			p := &partition{rows: make(map[string]*row, nr)}
			for k := 0; k < nr; k++ {
				e, err := loadRow(r)
				if err != nil {
					return err
				}
				if e.PartitionKey != pk {
					return fmt.Errorf("%w: table %q: row %q filed under partition %q names partition %q",
						snap.ErrCorrupt, t.name, e.RowKey, pk, e.PartitionKey)
				}
				if err := p.rks.appendInOrder(e.RowKey); err != nil {
					return err
				}
				p.rows[e.RowKey] = e
			}
			if err := t.pks.appendInOrder(pk); err != nil {
				return err
			}
			t.partitions[pk] = p
		}
		tables[t.name] = t
	}
	if err := r.Err(); err != nil {
		return err
	}
	s.tables = tables
	return nil
}

func saveEntity(w *snap.Writer, e *row) {
	w.String(e.PartitionKey)
	w.String(e.RowKey)
	w.Time(e.Timestamp)
	w.String(e.ETag)
	w.Int(len(e.props))
	for _, p := range e.props {
		w.String(p.Name)
		saveValue(w, p.Value)
	}
}

// loadRow reads a row saveEntity wrote, property names in strictly
// increasing order as a row holds them.
func loadRow(r *snap.Reader) (*row, error) {
	e := &row{
		PartitionKey: r.String(),
		RowKey:       r.String(),
		Timestamp:    r.Time(),
		ETag:         r.String(),
	}
	np := r.Count()
	e.props = make([]Prop, 0, np)
	for i := 0; i < np; i++ {
		name := r.String()
		v, err := loadValue(r)
		if err != nil {
			return nil, err
		}
		if i > 0 && name <= e.props[i-1].Name {
			return nil, fmt.Errorf("%w: row (%q,%q): property %q after %q",
				snap.ErrCorrupt, e.PartitionKey, e.RowKey, name, e.props[i-1].Name)
		}
		e.props = append(e.props, Prop{name, v})
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	e.measure()
	// Rows are handed out as loaded: hold them to what a write checks.
	if err := e.validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", snap.ErrCorrupt, err)
	}
	return e, nil
}

func saveValue(w *snap.Writer, v Value) {
	w.U8(uint8(v.Type))
	switch v.Type {
	case TypeString, TypeGUID:
		w.String(v.S)
	case TypeInt32, TypeInt64:
		w.I64(v.I)
	case TypeDouble:
		w.F64(v.F)
	case TypeBool:
		w.Bool(v.B)
	case TypeDateTime:
		w.Time(v.T)
	case TypeBinary:
		v.Bin.Save(w)
	}
}

func loadValue(r *snap.Reader) (Value, error) {
	v := Value{Type: PropType(r.U8())}
	switch v.Type {
	case TypeString, TypeGUID:
		v.S = r.String()
	case TypeInt32, TypeInt64:
		v.I = r.I64()
	case TypeDouble:
		v.F = r.F64()
	case TypeBool:
		v.B = r.Bool()
	case TypeDateTime:
		v.T = r.Time()
	case TypeBinary:
		var err error
		if v.Bin, err = payload.Load(r); err != nil {
			return Value{}, err
		}
	default:
		return Value{}, fmt.Errorf("%w: property type %d", snap.ErrCorrupt, v.Type)
	}
	return v, r.Err()
}
