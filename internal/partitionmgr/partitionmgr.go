// Package partitionmgr implements the partition master of the simulated
// table service: a versioned range-partition map per table plus a
// deterministic control loop that splits hot ranges across partition
// servers, merges cold neighbours, and migrates ranges between servers —
// the dynamic load balancing the real Azure partition layer performs and
// the paper's fixed-placement model cannot express.
//
// Everything runs on the virtual clock and the simulation's seeded PRNG:
// the master never reads wall time, so two runs at the same seed produce
// the same split/merge/migrate timeline byte for byte. A range that has
// just been moved is unavailable for MigrationBlackout (the handoff
// window); the cloud front door rejects requests for it with ServerBusy,
// and requests addressed with a stale map version get a retriable
// PartitionMoved redirect.
package partitionmgr

import (
	"fmt"
	"sort"
	"time"

	"azurebench/internal/sim"
)

// Config parameterizes the master. The zero value of the dynamic knobs is
// replaced with safe defaults by New; Dynamic false reproduces the paper's
// static first-sight round-robin placement exactly (the control loop never
// runs and no randomness is consumed).
type Config struct {
	Dynamic           bool
	Servers           int           // initial partition-server count
	MaxServers        int           // scale-out ceiling for dynamic placement
	SplitOpsPerSec    float64       // observed range rate that triggers a split
	MergeOpsPerSec    float64       // adjacent ranges both below: merge/migrate
	ControlInterval   time.Duration // control-loop tick period
	MigrationBlackout time.Duration // unavailability window of a moved range
}

// EventKind classifies a structural map change.
type EventKind int

// Structural operations the control loop performs.
const (
	Split EventKind = iota
	Merge
	Migrate
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case Split:
		return "Split"
	case Merge:
		return "Merge"
	case Migrate:
		return "Migrate"
	}
	return "?"
}

// Event records one structural change to a table's partition map.
type Event struct {
	At       time.Duration // virtual time of the control tick
	Kind     EventKind
	Table    string
	Start    string        // start key of the affected range ("" = -inf)
	SplitKey string        // Split only: first key of the new right half
	From     int           // previous owner server
	To       int           // owner after the operation
	Version  uint64        // map version after the operation
	Blackout time.Duration // handoff unavailability applied to the moved range
}

// Describe renders the event for trace tags and logs.
func (e Event) Describe() string {
	switch e.Kind {
	case Split:
		return fmt.Sprintf("%s split [%s,...) at %q srv%d->srv%d v%d", e.Table, e.Start, e.SplitKey, e.From, e.To, e.Version)
	case Merge:
		return fmt.Sprintf("%s merge [%s,...) into predecessor on srv%d v%d", e.Table, e.Start, e.To, e.Version)
	default:
		return fmt.Sprintf("%s migrate [%s,...) srv%d->srv%d v%d", e.Table, e.Start, e.From, e.To, e.Version)
	}
}

// Stats counts the master's activity.
type Stats struct {
	Splits         uint64
	Merges         uint64
	Migrations     uint64
	Redirects      uint64 // stale-map requests bounced with PartitionMoved
	HandoffRejects uint64 // requests rejected inside a migration blackout
	MapRefreshes   uint64 // client partition-map snapshot fetches
	Promotions     uint64 // failover promotions applied to this master
	Servers        int    // partition servers currently provisioned
	Ranges         int    // ranges across all tables
}

// rangeState is one contiguous key range [start, nextStart) of a table.
// ops/keys are the load window since the last control tick.
type rangeState struct {
	start        string // "" = -inf; ranges[0].start is always ""
	owner        int
	unavailUntil time.Duration
	ops          float64
	keys         map[string]float64
}

// tableState is the authoritative partition map of one table.
type tableState struct {
	name    string
	version uint64
	ranges  []*rangeState // sorted by start
}

// rangeFor returns the index and state of the range holding pk.
func (t *tableState) rangeFor(pk string) (int, *rangeState) {
	// First range with start > pk; pk belongs to its predecessor.
	// ranges[0].start == "" is never > pk, so i >= 1.
	i := sort.Search(len(t.ranges), func(i int) bool { return t.ranges[i].start > pk })
	return i - 1, t.ranges[i-1]
}

// TableMap is an immutable snapshot of one table's partition map — what a
// client caches and routes by until its TTL expires or a redirect
// invalidates it.
type TableMap struct {
	Version uint64
	starts  []string
	owners  []int
}

// Owner resolves pk to the owning server index under this snapshot.
func (m *TableMap) Owner(pk string) int {
	i := sort.SearchStrings(m.starts, pk)
	if i < len(m.starts) && m.starts[i] == pk {
		return m.owners[i]
	}
	return m.owners[i-1]
}

// Master is the partition master: it owns every table's map, observes
// per-range load, and mutates placement on control ticks. It must only be
// used from the single-threaded simulation.
type Master struct {
	cfg Config
	// rand is the environment's stream, shared at construction: sim.Env's
	// snapshot section saves and restores it, so Master's own does not.
	rand    *sim.Rand
	tables  map[string]*tableState
	order   []string // table creation order, for deterministic iteration
	servers int
	stats   Stats
	events  []Event

	lastTick time.Duration
	nextTick time.Duration
	ticked   bool

	// Static-placement state (Dynamic false): the legacy first-sight
	// round-robin map from (table|pk) to server, the form snapshots and
	// Placements keep. Callers cache the answer per partition
	// (cloud.partSite), so Place runs once per partition, not per request.
	place  map[string]int
	nextRR int
}

// New builds a master. rand is only consumed by dynamic structural
// decisions (tie-breaking equally loaded target servers); it may be nil
// when Dynamic is false.
func New(cfg Config, rand *sim.Rand) *Master {
	if cfg.Servers < 1 {
		cfg.Servers = 1
	}
	if cfg.MaxServers < cfg.Servers {
		cfg.MaxServers = cfg.Servers
	}
	if cfg.ControlInterval <= 0 {
		cfg.ControlInterval = time.Second
	}
	if cfg.SplitOpsPerSec <= 0 {
		cfg.SplitOpsPerSec = 250
	}
	if cfg.MergeOpsPerSec <= 0 {
		cfg.MergeOpsPerSec = 50
	}
	return &Master{
		cfg:     cfg,
		rand:    rand,
		tables:  map[string]*tableState{},
		servers: cfg.Servers,
		place:   map[string]int{},
	}
}

// Dynamic reports whether the control loop is active.
func (m *Master) Dynamic() bool { return m.cfg.Dynamic }

// Servers returns the number of partition servers currently provisioned.
func (m *Master) Servers() int { return m.servers }

// Stats returns a snapshot of the master's counters.
func (m *Master) Stats() Stats {
	st := m.stats
	st.Servers = m.servers
	for _, name := range m.order {
		st.Ranges += len(m.tables[name].ranges)
	}
	if !m.cfg.Dynamic {
		st.Ranges = len(m.place)
	}
	return st
}

// Events returns the structural-change timeline in occurrence order.
func (m *Master) Events() []Event {
	return append([]Event(nil), m.events...)
}

// NoteRedirect counts a stale-map request bounced by the front door.
func (m *Master) NoteRedirect() { m.stats.Redirects++ }

// NoteHandoffReject counts a request rejected inside a blackout window.
func (m *Master) NoteHandoffReject() { m.stats.HandoffRejects++ }

// Place is the static-placement path: each (table, partition key) pins to
// a server round-robin on first sight, exactly the paper's model.
func (m *Master) Place(table, pk string) int {
	key := table + "|" + pk
	idx, ok := m.place[key]
	if !ok {
		idx = m.nextRR % m.cfg.Servers
		m.nextRR++
		m.place[key] = idx
	}
	return idx
}

// table returns (creating on first sight) the authoritative map of name.
// A new table starts as one full-keyspace range on the next round-robin
// server, so an idle dynamic cloud places exactly like the static one.
func (m *Master) table(name string) *tableState {
	t := m.tables[name]
	if t == nil {
		t = &tableState{
			name:    name,
			version: 1,
			ranges: []*rangeState{{
				owner: m.nextRR % m.cfg.Servers,
				keys:  map[string]float64{},
			}},
		}
		m.nextRR++
		m.tables[name] = t
		m.order = append(m.order, name)
	}
	return t
}

// Lookup returns the authoritative owner and blackout deadline for pk —
// what the addressed partition server checks against the client's routing
// decision.
func (m *Master) Lookup(table, pk string) (owner int, unavailUntil time.Duration) {
	t := m.table(table)
	_, r := t.rangeFor(pk)
	return r.owner, r.unavailUntil
}

// Promote executes the map-side half of a geo-failover on this (secondary)
// master: every table's map version is bumped and every range enters a
// handoff blackout until now+blackout, modelling the ownership handoff as
// the promoted region re-seats its partition servers. Clients converge
// exactly as they do for an ordinary migration — stale map versions bounce
// with PartitionMoved, blackout hits retry as handoff rejects — so no new
// client protocol is needed. Returns the number of ranges promoted.
func (m *Master) Promote(now time.Duration, blackout time.Duration) int {
	ranges := 0
	for _, name := range m.order {
		t := m.tables[name]
		t.version++
		for _, r := range t.ranges {
			until := now + blackout
			if until > r.unavailUntil {
				r.unavailUntil = until
			}
			ranges++
		}
	}
	m.stats.Promotions++
	return ranges
}

// Snapshot returns an immutable copy of the table's current map — the
// "get partition map" call a client makes when its cache is cold, expired
// or invalidated.
func (m *Master) Snapshot(table string) *TableMap {
	t := m.table(table)
	m.stats.MapRefreshes++
	tm := &TableMap{
		Version: t.version,
		starts:  make([]string, len(t.ranges)),
		owners:  make([]int, len(t.ranges)),
	}
	for i, r := range t.ranges {
		tm.starts[i] = r.start
		tm.owners[i] = r.owner
	}
	return tm
}

// Record observes one request for (table, pk) at virtual time now and
// returns the structural events of the control tick it may have
// triggered (nil on ordinary requests). Only the dynamic master records
// load; the static master is inert here.
func (m *Master) Record(now time.Duration, table, pk string) []Event {
	if !m.cfg.Dynamic {
		return nil
	}
	t := m.table(table)
	_, r := t.rangeFor(pk)
	r.ops++
	r.keys[pk]++
	if !m.ticked {
		m.ticked = true
		m.lastTick = now
		m.nextTick = now + m.cfg.ControlInterval
		return nil
	}
	if now < m.nextTick {
		return nil
	}
	evs := m.tick(now)
	m.lastTick = now
	m.nextTick = now + m.cfg.ControlInterval
	return evs
}

// tick runs one control-loop pass: per table (in creation order, at most
// one structural operation of each kind) split the hottest range, merge
// one cold same-server pair, and migrate one cold range next to a
// differently-owned cold neighbour so a later tick can merge them. The
// load windows are then reset.
func (m *Master) tick(now time.Duration) []Event {
	window := (now - m.lastTick).Seconds()
	if window <= 0 {
		return nil
	}
	load := m.serverLoad()
	var evs []Event
	for _, name := range m.order {
		t := m.tables[name]
		if ev, ok := m.splitHot(now, t, window, &load); ok {
			evs = append(evs, ev)
		}
		if ev, ok := m.mergeCold(now, t, window); ok {
			evs = append(evs, ev)
		}
		if ev, ok := m.migrateCold(now, t, window, load); ok {
			evs = append(evs, ev)
		}
	}
	for _, name := range m.order {
		for _, r := range m.tables[name].ranges {
			r.ops = 0
			r.keys = map[string]float64{}
		}
	}
	m.events = append(m.events, evs...)
	return evs
}

// serverLoad sums this window's per-range request counts by owner.
func (m *Master) serverLoad() []float64 {
	load := make([]float64, m.servers)
	for _, name := range m.order {
		for _, r := range m.tables[name].ranges {
			load[r.owner] += r.ops
		}
	}
	return load
}

// splitHot splits the table's hottest over-threshold range at its
// weighted median key, placing the new right half on the least-loaded
// server (provisioning a fresh one when every existing server already
// carries load and capacity remains). The moved half enters a handoff
// blackout.
func (m *Master) splitHot(now time.Duration, t *tableState, window float64, loadp *[]float64) (Event, bool) {
	hot := -1
	var hotOps float64
	for i, r := range t.ranges {
		if len(r.keys) >= 2 && r.ops > hotOps {
			hot, hotOps = i, r.ops
		}
	}
	if hot < 0 || hotOps/window < m.cfg.SplitOpsPerSec {
		return Event{}, false
	}
	r := t.ranges[hot]
	key := splitPoint(r)
	if key == "" {
		return Event{}, false
	}
	to := m.targetServer(loadp, r.owner)
	load := *loadp
	newR := &rangeState{
		start:        key,
		owner:        to,
		unavailUntil: now + m.cfg.MigrationBlackout,
		keys:         map[string]float64{},
	}
	for k, n := range r.keys {
		if k >= key {
			newR.keys[k] = n
			newR.ops += n
		}
	}
	for k := range newR.keys {
		delete(r.keys, k)
	}
	r.ops -= newR.ops
	load[r.owner] -= newR.ops
	load[to] += newR.ops
	t.ranges = append(t.ranges, nil)
	copy(t.ranges[hot+2:], t.ranges[hot+1:])
	t.ranges[hot+1] = newR
	t.version++
	m.stats.Splits++
	return Event{
		At: now, Kind: Split, Table: t.name, Start: r.start, SplitKey: key,
		From: r.owner, To: to, Version: t.version, Blackout: m.cfg.MigrationBlackout,
	}, true
}

// splitPoint picks the weighted median of the range's window keys,
// advanced past the first key so both halves are non-empty. With one
// dominant hot key the split isolates it on its own range.
func splitPoint(r *rangeState) string {
	keys := make([]string, 0, len(r.keys))
	for k := range r.keys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) < 2 {
		return ""
	}
	half := r.ops / 2
	var cum float64
	for _, k := range keys {
		cum += r.keys[k]
		if cum >= half && k > keys[0] {
			return k
		}
	}
	return keys[len(keys)-1]
}

// targetServer picks the least-loaded server other than exclude for a
// moved range. When every candidate already carries window load and
// capacity remains, a new server is provisioned (scale-out); exact load
// ties break through the seeded PRNG.
func (m *Master) targetServer(load *[]float64, exclude int) int {
	best := -1.0
	var ties []int
	for i := 0; i < m.servers; i++ {
		if i == exclude {
			continue
		}
		l := (*load)[i]
		switch {
		case len(ties) == 0 || l < best:
			best = l
			ties = ties[:0]
			ties = append(ties, i)
		case l == best:
			ties = append(ties, i)
		}
	}
	if (len(ties) == 0 || best > 0) && m.servers < m.cfg.MaxServers {
		idx := m.servers
		m.servers++
		*load = append(*load, 0)
		return idx
	}
	switch len(ties) {
	case 0:
		return exclude
	case 1:
		return ties[0]
	}
	return ties[m.rand.Intn(len(ties))]
}

// mergeCold merges the first adjacent pair of cold ranges sharing an
// owner (both below the merge threshold, neither mid-handoff) — no data
// moves, so no blackout.
func (m *Master) mergeCold(now time.Duration, t *tableState, window float64) (Event, bool) {
	for i := 0; i+1 < len(t.ranges); i++ {
		a, b := t.ranges[i], t.ranges[i+1]
		if a.owner != b.owner || !m.cold(a, b, now, window) {
			continue
		}
		a.ops += b.ops
		for k, n := range b.keys {
			a.keys[k] = n
		}
		t.ranges = append(t.ranges[:i+1], t.ranges[i+2:]...)
		t.version++
		m.stats.Merges++
		return Event{
			At: now, Kind: Merge, Table: t.name, Start: b.start,
			From: b.owner, To: a.owner, Version: t.version,
		}, true
	}
	return Event{}, false
}

// migrateCold moves the first cold range whose cold predecessor lives on
// a different server onto that server, paying the handoff blackout, so a
// later tick can merge the pair.
func (m *Master) migrateCold(now time.Duration, t *tableState, window float64, load []float64) (Event, bool) {
	for i := 0; i+1 < len(t.ranges); i++ {
		a, b := t.ranges[i], t.ranges[i+1]
		if a.owner == b.owner || !m.cold(a, b, now, window) {
			continue
		}
		from := b.owner
		b.owner = a.owner
		b.unavailUntil = now + m.cfg.MigrationBlackout
		load[from] -= b.ops
		load[a.owner] += b.ops
		t.version++
		m.stats.Migrations++
		return Event{
			At: now, Kind: Migrate, Table: t.name, Start: b.start,
			From: from, To: a.owner, Version: t.version, Blackout: m.cfg.MigrationBlackout,
		}, true
	}
	return Event{}, false
}

// cold reports whether both ranges are below the merge threshold and
// outside any handoff blackout.
func (m *Master) cold(a, b *rangeState, now time.Duration, window float64) bool {
	return a.ops/window < m.cfg.MergeOpsPerSec &&
		b.ops/window < m.cfg.MergeOpsPerSec &&
		now >= a.unavailUntil && now >= b.unavailUntil
}
