package partitionmgr

import (
	"fmt"

	snap "azurebench/internal/snapshot"
)

// Save appends the master's full state: every table's versioned range
// map with its load window (the per-range op counts and key histograms
// accumulated since the last control tick), the control-loop cursor,
// the static placement map, counters, and the structural-event
// timeline. Tables serialize in creation order — the master's own
// deterministic iteration order — and map contents in sorted key order.
func (m *Master) Save(w *snap.Writer) {
	w.Int(m.servers)
	w.Int(m.nextRR)
	w.Duration(m.lastTick)
	w.Duration(m.nextTick)
	w.Bool(m.ticked)

	w.Int(len(m.order))
	for _, name := range m.order {
		t := m.tables[name]
		w.String(t.name)
		w.U64(t.version)
		w.Int(len(t.ranges))
		for _, r := range t.ranges {
			w.String(r.start)
			w.Int(r.owner)
			w.Duration(r.unavailUntil)
			w.F64(r.ops)
			keys := snap.SortedKeys(r.keys)
			w.Int(len(keys))
			for _, k := range keys {
				w.String(k)
				w.F64(r.keys[k])
			}
		}
	}

	placeKeys := snap.SortedKeys(m.place)
	w.Int(len(placeKeys))
	for _, k := range placeKeys {
		w.String(k)
		w.Int(m.place[k])
	}

	w.U64(m.stats.Splits)
	w.U64(m.stats.Merges)
	w.U64(m.stats.Migrations)
	w.U64(m.stats.Redirects)
	w.U64(m.stats.HandoffRejects)
	w.U64(m.stats.MapRefreshes)
	w.U64(m.stats.Promotions)

	w.Int(len(m.events))
	for _, e := range m.events {
		w.Duration(e.At)
		w.U8(uint8(e.Kind))
		w.String(e.Table)
		w.String(e.Start)
		w.String(e.SplitKey)
		w.Int(e.From)
		w.Int(e.To)
		w.U64(e.Version)
		w.Duration(e.Blackout)
	}
}

// Load restores a master saved by Save, replacing all live state. The
// PRNG is shared with the simulation environment and restored there. A
// fleet size the master could not have grown to, or a range owner or
// static placement outside the fleet, is refused: the cloud would index
// its table stations with it.
func (m *Master) Load(r *snap.Reader) error {
	m.servers = r.Int()
	if r.Err() == nil && (m.servers < 1 || m.servers > m.cfg.MaxServers) {
		return fmt.Errorf("%w: partition master has %d servers, want 1..%d", snap.ErrCorrupt, m.servers, m.cfg.MaxServers)
	}
	outside := func(idx int) bool { return r.Err() == nil && (idx < 0 || idx >= m.servers) }
	m.nextRR = r.Int()
	m.lastTick = r.Duration()
	m.nextTick = r.Duration()
	m.ticked = r.Bool()

	nt := r.Count()
	m.tables = make(map[string]*tableState, nt)
	m.order = m.order[:0]
	for i := 0; i < nt; i++ {
		t := &tableState{
			name:    r.String(),
			version: r.U64(),
		}
		nr := r.Count()
		for j := 0; j < nr; j++ {
			rs := &rangeState{
				start:        r.String(),
				owner:        r.Int(),
				unavailUntil: r.Duration(),
				ops:          r.F64(),
			}
			if outside(rs.owner) {
				return fmt.Errorf("%w: table %q range %q is on server %d of %d", snap.ErrCorrupt, t.name, rs.start, rs.owner, m.servers)
			}
			nk := r.Count()
			rs.keys = make(map[string]float64, nk)
			for k := 0; k < nk; k++ {
				key := r.String()
				rs.keys[key] = r.F64()
			}
			t.ranges = append(t.ranges, rs)
		}
		m.tables[t.name] = t
		m.order = append(m.order, t.name)
	}

	np := r.Count()
	m.place = make(map[string]int, np)
	for i := 0; i < np; i++ {
		k := r.String()
		m.place[k] = r.Int()
		if outside(m.place[k]) {
			return fmt.Errorf("%w: partition %q is placed on server %d of %d", snap.ErrCorrupt, k, m.place[k], m.servers)
		}
	}

	m.stats = Stats{
		Splits:         r.U64(),
		Merges:         r.U64(),
		Migrations:     r.U64(),
		Redirects:      r.U64(),
		HandoffRejects: r.U64(),
		MapRefreshes:   r.U64(),
		Promotions:     r.U64(),
	}

	ne := r.Count()
	m.events = m.events[:0]
	for i := 0; i < ne; i++ {
		m.events = append(m.events, Event{
			At:       r.Duration(),
			Kind:     EventKind(r.U8()),
			Table:    r.String(),
			Start:    r.String(),
			SplitKey: r.String(),
			From:     r.Int(),
			To:       r.Int(),
			Version:  r.U64(),
			Blackout: r.Duration(),
		})
	}
	return r.Err()
}
