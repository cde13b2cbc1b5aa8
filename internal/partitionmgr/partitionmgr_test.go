package partitionmgr

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"azurebench/internal/sim"
)

func dynCfg() Config {
	return Config{
		Dynamic:           true,
		Servers:           2,
		MaxServers:        4,
		SplitOpsPerSec:    100,
		MergeOpsPerSec:    10,
		ControlInterval:   time.Second,
		MigrationBlackout: 100 * time.Millisecond,
	}
}

func TestStaticPlaceFirstSightRoundRobin(t *testing.T) {
	m := New(Config{Servers: 4}, nil)
	for i := 0; i < 8; i++ {
		if got, want := m.Place("t", fmt.Sprintf("pk%d", i)), i%4; got != want {
			t.Fatalf("Place(pk%d) = %d, want %d", i, got, want)
		}
	}
	// Repeat lookups are pinned.
	if got := m.Place("t", "pk5"); got != 1 {
		t.Fatalf("repeat Place(pk5) = %d, want 1", got)
	}
	if m.Dynamic() {
		t.Fatal("static master claims dynamic")
	}
}

// drive feeds n requests for pk spread uniformly over [from, to).
func drive(m *Master, table, pk string, n int, from, to time.Duration) []Event {
	var evs []Event
	step := (to - from) / time.Duration(n)
	for i := 0; i < n; i++ {
		evs = append(evs, m.Record(from+time.Duration(i)*step, table, pk)...)
	}
	return evs
}

func TestSplitIsolatesHotKey(t *testing.T) {
	m := New(dynCfg(), sim.NewRand(1))
	// Second one: a hot key and a warm key in the same range, 400 ops/s
	// total — over the 100/s split threshold.
	var evs []Event
	for i := 0; i < 400; i++ {
		pk := "hot"
		if i%4 == 0 {
			pk = "warm"
		}
		evs = append(evs, m.Record(time.Duration(i)*5*time.Millisecond, "t", pk)...)
	}
	var split *Event
	for i := range evs {
		if evs[i].Kind == Split {
			split = &evs[i]
			break
		}
	}
	if split == nil {
		t.Fatal("no split from a 400 ops/s range")
	}
	if split.Blackout != 100*time.Millisecond {
		t.Fatalf("split blackout = %v", split.Blackout)
	}
	// The two keys must now live on different ranges.
	hotOwner, _ := m.Lookup("t", "hot")
	warmOwner, _ := m.Lookup("t", "warm")
	snap := m.Snapshot("t")
	if len(snap.starts) < 2 {
		t.Fatalf("table still has %d range(s) after split", len(snap.starts))
	}
	if snap.Owner("hot") != hotOwner || snap.Owner("warm") != warmOwner {
		t.Fatal("snapshot owners disagree with authoritative lookup")
	}
	if m.Stats().Splits == 0 || m.Stats().Ranges < 2 {
		t.Fatalf("stats = %+v", m.Stats())
	}
}

func TestBlackoutExpires(t *testing.T) {
	m := New(dynCfg(), sim.NewRand(1))
	evs := drive(m, "t", "a", 200, 0, time.Second)
	evs = append(evs, drive(m, "t", "b", 200, time.Second, 2*time.Second)...)
	var until time.Duration
	for _, ev := range evs {
		if ev.Kind == Split {
			until = ev.At + ev.Blackout
		}
	}
	if until == 0 {
		t.Fatal("no split")
	}
	if _, u := m.Lookup("t", "b"); u != 0 && u != until {
		// The split half's deadline must match the event's window.
		t.Fatalf("unavailUntil = %v, want %v", u, until)
	}
}

func TestColdRangesMigrateThenMerge(t *testing.T) {
	m := New(dynCfg(), sim.NewRand(1))
	// Phase 1: make "a" hot enough to split away "b".
	for i := 0; i < 600; i++ {
		pk := "a"
		if i%3 == 0 {
			pk = "b"
		}
		m.Record(time.Duration(i)*4*time.Millisecond, "t", pk) // 250 ops/s
	}
	if len(m.Snapshot("t").starts) < 2 {
		t.Fatal("phase 1 produced no split")
	}
	// Phase 2: traffic cools to a trickle on a third key; the cold
	// neighbours must be consolidated (migrate onto one server, then
	// merge) within a few ticks.
	var kinds []EventKind
	for i := 0; i < 40; i++ {
		at := 3*time.Second + time.Duration(i)*250*time.Millisecond
		kinds = append(kinds, kindsOf(m.Record(at, "t", "c"))...)
	}
	st := m.Stats()
	if st.Merges == 0 {
		t.Fatalf("cold ranges never merged: %+v (events %v)", st, kinds)
	}
	if got := len(m.Snapshot("t").starts); got != 1 {
		t.Fatalf("table ends with %d ranges, want full consolidation to 1", got)
	}
}

func kindsOf(evs []Event) []EventKind {
	out := make([]EventKind, len(evs))
	for i, ev := range evs {
		out[i] = ev.Kind
	}
	return out
}

func TestScaleOutProvisionsUpToMax(t *testing.T) {
	cfg := dynCfg()
	cfg.Servers = 1
	cfg.MaxServers = 3
	m := New(cfg, sim.NewRand(1))
	// Many distinct hot keys force repeated splits; with every server
	// loaded, the master must provision up to (and not beyond) MaxServers.
	for i := 0; i < 4000; i++ {
		pk := fmt.Sprintf("k%02d", i%16)
		m.Record(time.Duration(i)*2*time.Millisecond, "t", pk)
	}
	if got := m.Servers(); got != 3 {
		t.Fatalf("servers = %d, want scale-out to the max of 3", got)
	}
}

func TestDeterministicTimeline(t *testing.T) {
	runOnce := func() []Event {
		m := New(dynCfg(), sim.NewRand(7))
		for i := 0; i < 2000; i++ {
			m.Record(time.Duration(i)*3*time.Millisecond, "t", fmt.Sprintf("k%02d", i%8))
		}
		return m.Events()
	}
	a, b := runOnce(), runOnce()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical runs diverged:\n%v\nvs\n%v", a, b)
	}
	if len(a) == 0 {
		t.Fatal("workload produced no structural events")
	}
}

func TestTableMapOwnerBoundaries(t *testing.T) {
	tm := &TableMap{Version: 3, starts: []string{"", "m", "t"}, owners: []int{0, 1, 2}}
	for _, tc := range []struct {
		pk   string
		want int
	}{
		{"", 0}, {"a", 0}, {"m", 1}, {"mzzz", 1}, {"t", 2}, {"zz", 2},
	} {
		if got := tm.Owner(tc.pk); got != tc.want {
			t.Errorf("Owner(%q) = %d, want %d", tc.pk, got, tc.want)
		}
	}
}

func TestStaticMasterRecordsNothing(t *testing.T) {
	m := New(Config{Servers: 4}, nil)
	if evs := m.Record(time.Second, "t", "pk"); evs != nil {
		t.Fatalf("static Record returned events %v", evs)
	}
	if st := m.Stats(); st.Splits+st.Merges+st.Migrations != 0 {
		t.Fatalf("static master mutated: %+v", st)
	}
}

func TestPromoteBumpsEveryTableAndBlacksOutRanges(t *testing.T) {
	m := New(dynCfg(), sim.NewRand(1))
	// Two tables, the first split into two ranges.
	drive(m, "orders", "hot", 300, 0, time.Second)
	drive(m, "orders", "cold", 5, time.Second, 1100*time.Millisecond)
	m.Record(1200*time.Millisecond, "orders", "hot") // tick: split
	m.Lookup("users", "u1")
	v1 := m.Snapshot("orders").Version
	v2 := m.Snapshot("users").Version

	now := 2 * time.Second
	blackout := 300 * time.Millisecond
	ranges := m.Promote(now, blackout)
	if want := len(m.Snapshot("orders").starts) + len(m.Snapshot("users").starts); ranges != want {
		t.Fatalf("Promote touched %d ranges, want %d", ranges, want)
	}
	if got := m.Snapshot("orders").Version; got != v1+1 {
		t.Errorf("orders version %d after promote, want %d", got, v1+1)
	}
	if got := m.Snapshot("users").Version; got != v2+1 {
		t.Errorf("users version %d after promote, want %d", got, v2+1)
	}
	// Every range is blacked out until now+blackout.
	for _, probe := range []struct{ table, pk string }{
		{"orders", "hot"}, {"orders", "cold"}, {"users", "u1"},
	} {
		if _, until := m.Lookup(probe.table, probe.pk); until != now+blackout {
			t.Errorf("%s/%s unavailUntil = %v, want %v", probe.table, probe.pk, until, now+blackout)
		}
	}
	if m.Stats().Promotions != 1 {
		t.Errorf("Promotions = %d, want 1", m.Stats().Promotions)
	}
}
