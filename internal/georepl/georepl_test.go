package georepl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"azurebench/internal/sim"
)

func constDelay(d time.Duration) func(int64) time.Duration {
	return func(int64) time.Duration { return d }
}

func TestStreamShipsInOrder(t *testing.T) {
	env := sim.NewEnv(1)
	var applied []string
	var appliedAt []time.Duration
	mk := func(name string) func() error {
		return func() error {
			applied = append(applied, name)
			appliedAt = append(appliedAt, env.Now())
			return nil
		}
	}
	st, err := NewStream(env, Config{
		Name:     "acct",
		LagBound: 2 * time.Second, // ShipInterval defaults to 500ms
		Delay:    constDelay(100 * time.Millisecond),
	})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	st.Start()
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			st.Append(p.Now(), "queue", "jobs", "PutMessage", 1024, "", "", mk(fmt.Sprintf("m%d", i)))
			p.Sleep(50 * time.Millisecond)
		}
	})
	env.Run()

	want := []string{"m0", "m1", "m2", "m3", "m4"}
	if len(applied) != len(want) {
		t.Fatalf("applied %d records, want %d", len(applied), len(want))
	}
	for i, name := range want {
		if applied[i] != name {
			t.Errorf("applied[%d] = %s, want %s (log order must be preserved)", i, applied[i], name)
		}
	}
	// One batching window (500ms) coalesces the burst, then one WAN hop.
	if got, want := appliedAt[0], 600*time.Millisecond; got != want {
		t.Errorf("first apply at %v, want %v", got, want)
	}
	s := st.Stats()
	if s.Appended != 5 || s.Applied != 5 || s.Batches != 1 {
		t.Errorf("stats = %+v, want 5 appended, 5 applied, 1 batch", s)
	}
	// LastSyncTime is the newest applied commit time: the m4 append at 200ms.
	if got, want := st.LastSyncTime(), 200*time.Millisecond; got != want {
		t.Errorf("LastSyncTime = %v, want %v", got, want)
	}
	// Oldest record waited the whole window plus the hop.
	if got, want := s.MaxLag, 600*time.Millisecond; got != want {
		t.Errorf("MaxLag = %v, want %v", got, want)
	}
	if s.BoundExceeded != 0 {
		t.Errorf("BoundExceeded = %d with lag under the 2s bound", s.BoundExceeded)
	}
}

func TestStreamPartitionSequencing(t *testing.T) {
	env := sim.NewEnv(1)
	st, err := NewStream(env, Config{Name: "acct", LagBound: time.Second, Delay: constDelay(10 * time.Millisecond)})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	var recs []*Record
	st.SetOnShip(func(_, _ time.Duration, batch []*Record, _ int64) {
		recs = append(recs, batch...)
	})
	st.Start()
	env.Go("writer", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			st.Append(p.Now(), "table", "orders", "InsertEntity", 256, "", "", func() error { return nil })
			st.Append(p.Now(), "table", "users", "InsertEntity", 256, "", "", func() error { return nil })
		}
	})
	env.Run()
	if len(recs) != 6 {
		t.Fatalf("shipped %d records, want 6", len(recs))
	}
	seq := map[string]uint64{}
	for _, r := range recs {
		if r.PartSeq != seq[r.Part]+1 {
			t.Errorf("partition %q record has PartSeq %d after %d", r.Part, r.PartSeq, seq[r.Part])
		}
		seq[r.Part] = r.PartSeq
	}
	if seq["orders"] != 3 || seq["users"] != 3 {
		t.Errorf("per-partition sequences = %v, want 3 each", seq)
	}
}

func TestStreamFreezeCountsLost(t *testing.T) {
	env := sim.NewEnv(1)
	var applied int
	st, err := NewStream(env, Config{
		Name:         "acct",
		LagBound:     2 * time.Second,
		ShipInterval: 500 * time.Millisecond,
		Delay:        constDelay(100 * time.Millisecond),
	})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	st.Start()
	env.Go("writer", func(p *sim.Proc) {
		st.Append(p.Now(), "blob", "logs", "PutBlock", 4096, "", "", func() error { applied++; return nil })
		p.Sleep(510 * time.Millisecond) // first record is now in flight on the WAN
		st.Append(p.Now(), "blob", "logs", "PutBlock", 4096, "", "", func() error { applied++; return nil })
	})
	var lost []*Record
	env.GoAt(550*time.Millisecond, "outage", func(p *sim.Proc) {
		lost = st.Freeze(p.Now())
		// Writes arriving after the freeze are dropped, not queued.
		st.Append(p.Now(), "blob", "logs", "PutBlock", 4096, "", "", func() error { applied++; return nil })
	})
	env.Run()

	if applied != 0 {
		t.Errorf("%d records applied despite the freeze", applied)
	}
	if len(lost) != 2 {
		t.Fatalf("Freeze returned %d lost records, want 2 (1 in flight + 1 pending)", len(lost))
	}
	s := st.Stats()
	if s.LostAtFreeze != 2 || s.DroppedFrozen != 1 {
		t.Errorf("stats = %+v, want LostAtFreeze 2, DroppedFrozen 1", s)
	}
	if !st.frozen {
		t.Error("stream not frozen")
	}
	// Idempotent: a second freeze loses nothing more.
	if again := st.Freeze(600 * time.Millisecond); len(again) != 0 {
		t.Errorf("second Freeze returned %d records", len(again))
	}
}

func TestStreamApplyErrorsTolerated(t *testing.T) {
	env := sim.NewEnv(1)
	st, err := NewStream(env, Config{Name: "acct", LagBound: time.Second, Delay: constDelay(time.Millisecond)})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	st.Start()
	env.Go("writer", func(p *sim.Proc) {
		st.Append(p.Now(), "queue", "jobs", "DeleteMessage", 64, "", "", func() error { return errors.New("message gone") })
		st.Append(p.Now(), "queue", "jobs", "PutMessage", 64, "", "", func() error { return nil })
	})
	env.Run()
	s := st.Stats()
	if s.Applied != 2 || s.ApplyErrors != 1 {
		t.Errorf("stats = %+v, want Applied 2, ApplyErrors 1", s)
	}
}

func TestWaitDrained(t *testing.T) {
	env := sim.NewEnv(1)
	st, err := NewStream(env, Config{
		Name:         "acct",
		LagBound:     time.Second,
		ShipInterval: 100 * time.Millisecond,
		Delay:        constDelay(200 * time.Millisecond),
	})
	if err != nil {
		t.Fatalf("NewStream: %v", err)
	}
	st.Start()
	env.Go("writer", func(p *sim.Proc) {
		st.Append(p.Now(), "table", "t", "InsertEntity", 128, "", "", func() error { return nil })
	})
	var drainedAt time.Duration
	env.Go("waiter", func(p *sim.Proc) {
		st.WaitDrained(p)
		drainedAt = p.Now()
	})
	env.Run()
	if want := 300 * time.Millisecond; drainedAt != want {
		t.Errorf("WaitDrained returned at %v, want %v (ship window + WAN hop)", drainedAt, want)
	}
	if len(st.pending) != 0 {
		t.Errorf("%d records still pending after drain", len(st.pending))
	}
}

// TestSecondaryReadsMonotonicLastSync is the RA-GRS staleness contract:
// every client observing LastSyncTime on the secondary sees a
// non-decreasing sequence (stale but monotonic), and the value never runs
// ahead of what the primary has actually committed.
func TestSecondaryReadsMonotonicLastSync(t *testing.T) {
	cases := []struct {
		name     string
		commits  []time.Duration // primary commit schedule
		shipEach time.Duration   // batching window
		wanHop   time.Duration
		readers  int
		sampleEv time.Duration
	}{
		{
			name:     "steady-writer-two-readers",
			commits:  []time.Duration{0, 100 * time.Millisecond, 200 * time.Millisecond, 700 * time.Millisecond, 1500 * time.Millisecond},
			shipEach: 250 * time.Millisecond,
			wanHop:   70 * time.Millisecond,
			readers:  2,
			sampleEv: 90 * time.Millisecond,
		},
		{
			name:     "bursty-writer-slow-wan",
			commits:  []time.Duration{0, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond, 2 * time.Second},
			shipEach: 500 * time.Millisecond,
			wanHop:   400 * time.Millisecond,
			readers:  3,
			sampleEv: 130 * time.Millisecond,
		},
		{
			name:     "single-write-long-tail",
			commits:  []time.Duration{300 * time.Millisecond},
			shipEach: 100 * time.Millisecond,
			wanHop:   35 * time.Millisecond,
			readers:  1,
			sampleEv: 50 * time.Millisecond,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			env := sim.NewEnv(42)
			st, err := NewStream(env, Config{
				Name:         "acct",
				LagBound:     5 * time.Second,
				ShipInterval: tc.shipEach,
				Delay:        constDelay(tc.wanHop),
			})
			if err != nil {
				t.Fatalf("NewStream: %v", err)
			}
			st.Start()
			env.Go("writer", func(p *sim.Proc) {
				last := time.Duration(0)
				for _, at := range tc.commits {
					p.Sleep(at - last)
					last = at
					st.Append(p.Now(), "table", "t", "InsertEntity", 512, "", "", func() error { return nil })
				}
			})
			// committedBy returns the newest primary commit at or before now.
			committedBy := func(now time.Duration) time.Duration {
				var newest time.Duration
				for _, at := range tc.commits {
					if at <= now && at > newest {
						newest = at
					}
				}
				return newest
			}
			horizon := tc.commits[len(tc.commits)-1] + tc.shipEach + tc.wanHop + time.Second
			samples := make([][]time.Duration, tc.readers)
			for i := 0; i < tc.readers; i++ {
				i := i
				env.Go(fmt.Sprintf("reader-%d", i), func(p *sim.Proc) {
					for p.Now() < horizon {
						now := p.Now()
						v := st.LastSyncTime()
						if v > committedBy(now) {
							t.Errorf("reader %d at %v: LastSyncTime %v exceeds primary committed time %v",
								i, now, v, committedBy(now))
						}
						samples[i] = append(samples[i], v)
						p.Sleep(tc.sampleEv)
					}
				})
			}
			env.Run()
			for i, seq := range samples {
				for j := 1; j < len(seq); j++ {
					if seq[j] < seq[j-1] {
						t.Errorf("reader %d: LastSyncTime went backwards (%v after %v)", i, seq[j], seq[j-1])
					}
				}
				// Every reader eventually converges on the final commit.
				if len(seq) > 0 && seq[len(seq)-1] != tc.commits[len(tc.commits)-1] {
					t.Errorf("reader %d ended at LastSyncTime %v, want %v", i, seq[len(seq)-1], tc.commits[len(tc.commits)-1])
				}
			}
		})
	}
}

func TestAccountStateMachine(t *testing.T) {
	a := NewAccount("acct")
	if a.State() != StateHealthy || a.ActiveIsSecondary() {
		t.Fatal("new account must start healthy with the primary active")
	}
	// Illegal jumps are rejected.
	if err := a.To(0, StateFailoverPromoted, "skip"); err == nil {
		t.Error("healthy -> failover-promoted allowed")
	}
	if err := a.To(0, StateFailback, "skip"); err == nil {
		t.Error("healthy -> failback allowed")
	}
	// Short outage recovers without promotion.
	mustTo(t, a, 10*time.Second, StatePrimaryOutage, "blip")
	mustTo(t, a, 11*time.Second, StateHealthy, "recovered")
	if a.ActiveIsSecondary() {
		t.Error("recovery without promotion flipped the active region")
	}
	// Full failover cycle.
	mustTo(t, a, 20*time.Second, StatePrimaryOutage, "region outage")
	mustTo(t, a, 22*time.Second, StateFailoverPromoted, "detection elapsed")
	if !a.ActiveIsSecondary() {
		t.Error("promotion did not make the secondary active")
	}
	mustTo(t, a, 30*time.Second, StateFailback, "primary back")
	mustTo(t, a, 35*time.Second, StateHealthy, "reverse stream drained")
	if !a.ActiveIsSecondary() {
		t.Error("failback must keep the promoted region active (roles swap permanently)")
	}
	if at, ok := a.PromotedAt(); !ok || at != 22*time.Second {
		t.Errorf("PromotedAt = %v, %v; want 22s, true", at, ok)
	}
	if got := len(a.transitions); got != 6 {
		t.Errorf("%d transitions recorded, want 6", got)
	}

	a.RecordLoss("queue", 3)
	a.RecordLoss("table", 2)
	if a.TotalLost() != 5 || a.Lost("queue") != 3 || a.Lost("blob") != 0 {
		t.Errorf("loss tally wrong: total %d, queue %d, blob %d", a.TotalLost(), a.Lost("queue"), a.Lost("blob"))
	}
}

func mustTo(t *testing.T, a *Account, at time.Duration, s State, reason string) {
	t.Helper()
	if err := a.To(at, s, reason); err != nil {
		t.Fatalf("To(%v): %v", s, err)
	}
}
