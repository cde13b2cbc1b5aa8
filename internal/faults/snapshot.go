package faults

import snap "azurebench/internal/snapshot"

// Save appends the fault-plan cursor: the injector's private PRNG
// stream, the decision counters, and the retained schedule. The plan
// itself is config-derived and rebuilt on restore; what must survive is
// where in the random stream the plan's execution had advanced, so the
// requests after a restore draw exactly the faults they would have
// drawn in an uninterrupted run.
func (in *Injector) Save(w *snap.Writer) {
	w.U64(in.rng.State())
	w.U64(in.stats.Decisions)
	w.U64(in.stats.Timeouts)
	w.U64(in.stats.Internals)
	w.U64(in.stats.Resets)
	w.U64(in.stats.Outages)
	w.Int(len(in.events))
	for _, e := range in.events {
		w.Duration(e.At)
		w.String(e.Service)
		w.String(e.Op)
		w.String(e.Station)
		w.U8(uint8(e.Kind))
	}
}

// Load restores a cursor saved by Save.
func (in *Injector) Load(r *snap.Reader) error {
	in.rng.SetState(r.U64())
	in.stats.Decisions = r.U64()
	in.stats.Timeouts = r.U64()
	in.stats.Internals = r.U64()
	in.stats.Resets = r.U64()
	in.stats.Outages = r.U64()
	n := r.Count()
	in.events = in.events[:0]
	for i := 0; i < n; i++ {
		e := Event{
			At:      r.Duration(),
			Service: r.String(),
			Op:      r.String(),
			Station: r.String(),
			Kind:    Kind(r.U8()),
		}
		in.events = append(in.events, e)
	}
	return r.Err()
}
