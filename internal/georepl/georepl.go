// Package georepl implements the geo-replication machinery of a
// geo-redundant storage account: a per-account sequenced replication log
// shipped asynchronously over a WAN link to a secondary region, bounded-lag
// accounting with a measurable LastSyncTime (the value RA-GRS clients query
// to judge secondary staleness), and the failover state machine an account
// walks through when its primary region suffers an outage
// (healthy -> primary-outage -> failover-promoted -> failback).
//
// The package is deliberately independent of internal/cloud: a Stream only
// knows how to sequence, batch, ship, and apply opaque records; the cloud
// layer supplies each record's apply (its copy of the mutation's engine
// arguments, run through the same switch against the secondary's engines)
// and the WAN delay function (from netmodel.WANLink). Everything runs
// inside the cooperative DES — the shipper is a simulation process that
// parks on a fresh one-shot signal whenever the log is empty, so an idle
// stream holds no pending events and never keeps Env.Run alive.
package georepl

import (
	"fmt"
	"time"

	"azurebench/internal/sim"
)

// recOverhead is the per-record framing cost charged against the WAN link
// in addition to the payload bytes (sequence numbers, partition key,
// operation header).
const recOverhead = 256

// Record is one committed primary mutation awaiting replay on the
// secondary.
type Record struct {
	// Seq is the account-wide shipping order.
	Seq uint64
	// PartSeq sequences records within one partition; the secondary
	// applies each partition's records in PartSeq order (which batch
	// replay preserves because batches keep log order).
	PartSeq uint64
	// At is the primary's virtual commit time; LastSyncTime advances to
	// it once the record is applied, and lag is measured against it.
	At      time.Duration
	Service string // "blob" | "queue" | "table"
	Part    string // partition key (container, queue, or table name)
	Op      string
	Bytes   int64
	// TraceID/SpanID carry the causal identity of the primary mutation
	// that produced this record (empty when the primary ran untraced), so
	// replay trace ops parent under the op that caused them.
	TraceID string
	SpanID  string
	// Apply replays the mutation against the secondary's engine.
	Apply func() error
}

// Config parameterizes a Stream.
type Config struct {
	// Name labels the WAN station ("wan:<Name>") and the shipper process.
	Name string
	// LagBound is the replication lag the stream aims to stay under; the
	// shipper's batching window derives from it and Stats.BoundExceeded
	// counts applied records whose actual lag overran it.
	LagBound time.Duration
	// ShipInterval is the batching window: the shipper waits this long
	// after waking before taking the pending batch, so bursts coalesce
	// into one WAN transfer. Defaults to LagBound/4.
	ShipInterval time.Duration
	// Delay maps a batch's wire size to its one-way WAN transit time
	// (typically netmodel.WANLink.ForwardDelay). Required.
	Delay func(bytes int64) time.Duration
}

// Stats counts stream activity.
type Stats struct {
	Appended      uint64 // records accepted into the log
	Applied       uint64 // records replayed on the secondary
	Batches       uint64 // WAN transfers completed
	BytesShipped  int64  // wire bytes (payload + framing) across the WAN
	ApplyErrors   uint64 // replays the secondary engine rejected
	BoundExceeded uint64 // applied records whose lag overran LagBound
	LostAtFreeze  uint64 // records discarded by Freeze (the RPO)
	DroppedFrozen uint64 // appends arriving after Freeze
	MaxLag        time.Duration
	SumLag        time.Duration
}

// Stream is one direction of geo-replication for one account: an ordered
// log of committed mutations, a shipper process draining it over the WAN,
// and the lag/LastSyncTime bookkeeping RA-GRS reads consult. Not safe for
// concurrent use; the simulation serialises all calls.
type Stream struct {
	env *sim.Env
	cfg Config
	wan *sim.Resource

	pending  []*Record
	inflight []*Record
	nextSeq  uint64
	partSeq  map[string]uint64
	lastSync time.Duration
	frozen   bool

	wake  *sim.Signal // armed fresh each idle park; Append/Freeze fire it
	drain *sim.Signal // armed by WaitDrained; fired when the log empties

	stats  Stats
	onShip func(start, end time.Duration, recs []*Record, bytes int64)
}

// NewStream creates a stream and its WAN station. The shipper process is
// not started until Start, so a stream that is never started contributes
// nothing to the event timeline.
func NewStream(env *sim.Env, cfg Config) (*Stream, error) {
	if cfg.Delay == nil {
		return nil, fmt.Errorf("georepl: stream %q needs a WAN delay function", cfg.Name)
	}
	if cfg.LagBound <= 0 {
		cfg.LagBound = 5 * time.Second
	}
	if cfg.ShipInterval <= 0 {
		cfg.ShipInterval = cfg.LagBound / 4
	}
	return &Stream{
		env:     env,
		cfg:     cfg,
		wan:     sim.NewResource(env, "wan:"+cfg.Name, 1),
		partSeq: map[string]uint64{},
	}, nil
}

// Start launches the shipper process.
func (s *Stream) Start() {
	s.env.Go("georepl:"+s.cfg.Name, s.run)
}

// WAN exposes the stream's WAN station for telemetry sampling.
func (s *Stream) WAN() *sim.Resource { return s.wan }

// Stats returns a snapshot of stream counters. Safe on nil.
func (s *Stream) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return s.stats
}

// LastSyncTime returns the primary commit time of the latest record the
// secondary has applied — the RA-GRS staleness marker. It never exceeds
// the primary's committed virtual time and only moves forward, so reads
// observing it are monotonic. Safe on nil (returns zero).
func (s *Stream) LastSyncTime() time.Duration {
	if s == nil {
		return 0
	}
	return s.lastSync
}

// SetOnShip installs a hook invoked after each batch applies, with the
// transfer's start/end virtual times, the records, and the wire bytes —
// the cloud layer uses it to emit WAN trace spans.
func (s *Stream) SetOnShip(fn func(start, end time.Duration, recs []*Record, bytes int64)) {
	s.onShip = fn
}

// Append accepts a committed primary mutation into the replication log.
// at is the commit virtual time; apply replays the mutation on the
// secondary when the batch lands. traceID/spanID name the originating
// mutation's trace identity (empty when untraced). Appends after Freeze
// are dropped (the primary is partitioned from the WAN).
func (s *Stream) Append(at time.Duration, service, part, op string, bytes int64, traceID, spanID string, apply func() error) {
	if s.frozen {
		s.stats.DroppedFrozen++
		return
	}
	s.nextSeq++
	s.partSeq[part]++
	s.pending = append(s.pending, &Record{
		Seq:     s.nextSeq,
		PartSeq: s.partSeq[part],
		At:      at,
		Service: service,
		Part:    part,
		Op:      op,
		Bytes:   bytes,
		TraceID: traceID,
		SpanID:  spanID,
		Apply:   apply,
	})
	s.stats.Appended++
	if s.wake != nil {
		s.wake.Fire()
		s.wake = nil
	}
}

// Freeze severs the stream at a region outage: every record still pending
// or in flight on the WAN is lost, and the shipper process exits. The
// returned records are the data loss the failover experiment reports as
// RPO. Idempotent; later Appends are dropped.
func (s *Stream) Freeze(now time.Duration) (lost []*Record) {
	if s.frozen {
		return nil
	}
	s.frozen = true
	lost = append(lost, s.inflight...)
	lost = append(lost, s.pending...)
	s.inflight, s.pending = nil, nil
	s.stats.LostAtFreeze += uint64(len(lost))
	if s.wake != nil {
		s.wake.Fire()
		s.wake = nil
	}
	if s.drain != nil {
		s.drain.Fire()
		s.drain = nil
	}
	return lost
}

// WaitDrained parks p until the log is fully shipped and applied (or the
// stream freezes, after which nothing more will drain) — the failback
// path uses it to know when the old primary has caught up.
func (s *Stream) WaitDrained(p *sim.Proc) {
	for !s.frozen && (len(s.pending) > 0 || len(s.inflight) > 0) {
		if s.drain == nil {
			s.drain = sim.NewSignal(s.env)
		}
		s.drain.Wait(p)
	}
}

// run is the shipper process: park while idle, batch for the shipping
// interval, transit the WAN, replay on the secondary, repeat.
func (s *Stream) run(p *sim.Proc) {
	for {
		if s.frozen {
			return
		}
		if len(s.pending) == 0 {
			// Idle: park on a fresh one-shot signal (sim.Signal latches
			// once fired, so each round needs its own). A parked-forever
			// wait does not keep Env.Run alive.
			s.wake = sim.NewSignal(s.env)
			s.wake.Wait(p)
			continue
		}
		p.Sleep(s.cfg.ShipInterval) // batching window: coalesce a burst
		if s.frozen {
			return
		}
		batch := s.pending
		s.pending = nil
		s.inflight = batch
		var bytes int64
		for _, r := range batch {
			bytes += r.Bytes + recOverhead
		}
		start := p.Now()
		s.wan.Use(p, s.cfg.Delay(bytes))
		if s.frozen {
			// The outage hit while the batch was in transit; Freeze
			// already counted it as lost.
			return
		}
		now := p.Now()
		for _, r := range batch {
			if err := r.Apply(); err != nil {
				s.stats.ApplyErrors++
			}
			s.stats.Applied++
			lag := now - r.At
			s.stats.SumLag += lag
			if lag > s.stats.MaxLag {
				s.stats.MaxLag = lag
			}
			if lag > s.cfg.LagBound {
				s.stats.BoundExceeded++
			}
			s.lastSync = r.At
		}
		s.inflight = nil
		s.stats.Batches++
		s.stats.BytesShipped += bytes
		if s.onShip != nil {
			s.onShip(start, now, batch, bytes)
		}
		if len(s.pending) == 0 && s.drain != nil {
			s.drain.Fire()
			s.drain = nil
		}
	}
}

// State enumerates the failover phases of a geo-replicated account.
type State int

// Failover states.
const (
	// StateHealthy: primary serves, secondary trails within the lag bound.
	StateHealthy State = iota
	// StatePrimaryOutage: the primary region is dark; requests there fail
	// while the detection window runs.
	StatePrimaryOutage
	// StateFailoverPromoted: the secondary has been promoted — it owns a
	// new partition-map version and serves reads and writes.
	StateFailoverPromoted
	// StateFailback: the old primary is back; the reverse stream replays
	// the promoted region's writes into it.
	StateFailback
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StatePrimaryOutage:
		return "primary-outage"
	case StateFailoverPromoted:
		return "failover-promoted"
	case StateFailback:
		return "failback"
	}
	return "?"
}

// next reports the legal successor states.
func (s State) next(to State) bool {
	switch s {
	case StateHealthy:
		return to == StatePrimaryOutage
	case StatePrimaryOutage:
		return to == StateFailoverPromoted || to == StateHealthy
	case StateFailoverPromoted:
		return to == StateFailback
	case StateFailback:
		return to == StateHealthy
	}
	return false
}

// Transition records one state change.
type Transition struct {
	At     time.Duration
	From   State
	To     State
	Reason string
}

// Account is the failover state machine of one geo-replicated account.
// It tracks which region is active and the loss tally the RPO report
// renders.
type Account struct {
	name        string
	state       State
	transitions []Transition
	secondary   bool // true once the secondary has been promoted
	lost        map[string]uint64
}

// NewAccount creates a healthy account.
func NewAccount(name string) *Account {
	return &Account{name: name, lost: map[string]uint64{}}
}

// State returns the current failover state.
func (a *Account) State() State { return a.state }

// ActiveIsSecondary reports whether the promoted secondary is the active
// region (roles stay swapped after failback — promotion is permanent, as
// in the real service).
func (a *Account) ActiveIsSecondary() bool { return a.secondary }

// To moves the account to the next state, enforcing the legal cycle
// healthy -> primary-outage -> failover-promoted -> failback -> healthy
// (an outage shorter than the detection window may also return straight
// to healthy).
func (a *Account) To(now time.Duration, to State, reason string) error {
	if !a.state.next(to) {
		return fmt.Errorf("georepl: account %q cannot move %v -> %v", a.name, a.state, to)
	}
	a.transitions = append(a.transitions, Transition{At: now, From: a.state, To: to, Reason: reason})
	if to == StateFailoverPromoted {
		a.secondary = true
	}
	a.state = to
	return nil
}

// RecordLoss adds n records lost on freeze for the given service.
func (a *Account) RecordLoss(service string, n int) {
	a.lost[service] += uint64(n)
}

// Lost returns the records lost at failover for one service.
func (a *Account) Lost(service string) uint64 { return a.lost[service] }

// TotalLost returns the account-wide RPO in records, summed in fixed
// service order for determinism.
func (a *Account) TotalLost() uint64 {
	var total uint64
	for _, svc := range []string{"blob", "queue", "table"} {
		total += a.lost[svc]
	}
	return total
}

// PromotedAt returns the virtual time of the promotion transition and
// whether one happened — the basis of the RTO measurement.
func (a *Account) PromotedAt() (time.Duration, bool) {
	for _, tr := range a.transitions {
		if tr.To == StateFailoverPromoted {
			return tr.At, true
		}
	}
	return 0, false
}
