package georepl

import (
	"fmt"

	snap "azurebench/internal/snapshot"
)

// Save appends the replication stream's state: sequence counters,
// per-partition sequences, lag accounting, and a metadata fingerprint
// of every pending and in-flight record. A record's Apply holds the
// mutation's engine arguments and the secondary it replays them on, which
// this package cannot write, so a stream can only be loaded directly at
// quiescence (empty log); mid-run checkpoints rely on replay
// verification, where the fingerprints prove the replayed log matches the
// checkpointed one record for record.
func (s *Stream) Save(w *snap.Writer) {
	w.U64(s.nextSeq)
	w.Duration(s.lastSync)
	w.Bool(s.frozen)
	parts := snap.SortedKeys(s.partSeq)
	w.Int(len(parts))
	for _, k := range parts {
		w.String(k)
		w.U64(s.partSeq[k])
	}
	w.Int(len(s.pending))
	for _, rec := range s.pending {
		saveRecordMeta(w, rec)
	}
	w.Int(len(s.inflight))
	for _, rec := range s.inflight {
		saveRecordMeta(w, rec)
	}
	w.U64(s.stats.Appended)
	w.U64(s.stats.Applied)
	w.U64(s.stats.Batches)
	w.I64(s.stats.BytesShipped)
	w.U64(s.stats.ApplyErrors)
	w.U64(s.stats.BoundExceeded)
	w.U64(s.stats.LostAtFreeze)
	w.U64(s.stats.DroppedFrozen)
	w.Duration(s.stats.MaxLag)
	w.Duration(s.stats.SumLag)
}

// saveRecordMeta writes everything about a record except its Apply.
func saveRecordMeta(w *snap.Writer, rec *Record) {
	w.U64(rec.Seq)
	w.U64(rec.PartSeq)
	w.Duration(rec.At)
	w.String(rec.Service)
	w.String(rec.Part)
	w.String(rec.Op)
	w.I64(rec.Bytes)
	w.String(rec.TraceID)
	w.String(rec.SpanID)
}

// Load restores a stream saved by Save. The snapshot must describe a
// quiescent stream — nothing pending or on the WAN — because the Apply of
// a live record cannot be rebuilt from what Save wrote.
func (s *Stream) Load(r *snap.Reader) error {
	s.nextSeq = r.U64()
	s.lastSync = r.Duration()
	s.frozen = r.Bool()
	np := r.Count()
	s.partSeq = make(map[string]uint64, np)
	for i := 0; i < np; i++ {
		k := r.String()
		s.partSeq[k] = r.U64()
	}
	nPending := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nPending != 0 {
		return fmt.Errorf("georepl: snapshot of stream %q has %d pending records; only quiescent streams can be loaded", s.cfg.Name, nPending)
	}
	nInflight := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if nInflight != 0 {
		return fmt.Errorf("georepl: snapshot of stream %q has %d in-flight records; only quiescent streams can be loaded", s.cfg.Name, nInflight)
	}
	s.pending, s.inflight = nil, nil
	s.stats.Appended = r.U64()
	s.stats.Applied = r.U64()
	s.stats.Batches = r.U64()
	s.stats.BytesShipped = r.I64()
	s.stats.ApplyErrors = r.U64()
	s.stats.BoundExceeded = r.U64()
	s.stats.LostAtFreeze = r.U64()
	s.stats.DroppedFrozen = r.U64()
	s.stats.MaxLag = r.Duration()
	s.stats.SumLag = r.Duration()
	return r.Err()
}

// Save appends the failover state machine: the current state, the
// active-region bit, the transition history and the per-service loss
// tally (sorted for byte stability).
func (a *Account) Save(w *snap.Writer) {
	w.U8(uint8(a.state))
	w.Bool(a.secondary)
	w.Int(len(a.transitions))
	for _, tr := range a.transitions {
		w.Duration(tr.At)
		w.U8(uint8(tr.From))
		w.U8(uint8(tr.To))
		w.String(tr.Reason)
	}
	svcs := snap.SortedKeys(a.lost)
	w.Int(len(svcs))
	for _, k := range svcs {
		w.String(k)
		w.U64(a.lost[k])
	}
}

// Load restores an account saved by Save.
func (a *Account) Load(r *snap.Reader) error {
	a.state = State(r.U8())
	a.secondary = r.Bool()
	nt := r.Count()
	a.transitions = a.transitions[:0]
	for i := 0; i < nt; i++ {
		a.transitions = append(a.transitions, Transition{
			At:     r.Duration(),
			From:   State(r.U8()),
			To:     State(r.U8()),
			Reason: r.String(),
		})
	}
	nl := r.Count()
	a.lost = make(map[string]uint64, nl)
	for i := 0; i < nl; i++ {
		k := r.String()
		a.lost[k] = r.U64()
	}
	return r.Err()
}
