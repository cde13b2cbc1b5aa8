package storecommon

import (
	"fmt"
	"math"

	"azurebench/internal/snapshot"
)

// Save appends the token bucket's mutable state. Rate and burst are
// construction parameters carried by config, but writing them too lets
// Load cross-check that the snapshot is being restored into a limiter
// of the same shape.
func (l *RateLimiter) Save(w *snapshot.Writer) {
	w.F64(l.rate)
	w.F64(l.burst)
	w.F64(l.tokens)
	w.Duration(l.last)
	w.U64(l.rejects)
}

// Load restores a token bucket saved by Save.
func (l *RateLimiter) Load(r *snapshot.Reader) error {
	rate := r.F64()
	burst := r.F64()
	tokens := r.F64()
	last := r.Duration()
	rejects := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if rate != l.rate || burst != l.burst {
		return fmt.Errorf("storecommon: limiter shape mismatch (snapshot rate=%g burst=%g, live rate=%g burst=%g)",
			rate, burst, l.rate, l.burst)
	}
	// A NaN balance never refills and never admits; one above burst
	// admits a burst the bucket cannot hold. Either throttles the run
	// wrongly from the restore on.
	if math.IsNaN(tokens) || math.IsInf(tokens, 0) || tokens > burst {
		return fmt.Errorf("%w: limiter holds %g tokens, burst is %g", snapshot.ErrCorrupt, tokens, burst)
	}
	l.tokens = tokens
	l.last = last
	l.rejects = rejects
	return nil
}

// Save appends every pooled limiter in sorted key order plus the sweep
// cursor, so throttle decisions and deterministic eviction pick up after
// restore exactly where the checkpoint left them.
func (p *LimiterPool) Save(w *snapshot.Writer) {
	w.F64(p.rate)
	w.F64(p.burst)
	w.Duration(p.horizon)
	w.Duration(p.lastSweep)
	keys := snapshot.SortedKeys(p.entries)
	w.Int(len(keys))
	for _, k := range keys {
		e := p.entries[k]
		w.String(k)
		w.Duration(e.lastUsed)
		e.lim.Save(w)
	}
}

// Load restores a pool saved by Save, replacing any live entries.
func (p *LimiterPool) Load(r *snapshot.Reader) error {
	rate := r.F64()
	burst := r.F64()
	horizon := r.Duration()
	lastSweep := r.Duration()
	n := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if rate != p.rate || burst != p.burst || horizon != p.horizon {
		return fmt.Errorf("storecommon: limiter pool shape mismatch (snapshot rate=%g burst=%g horizon=%v)",
			rate, burst, horizon)
	}
	p.lastSweep = lastSweep
	for _, e := range p.entries {
		e.pool = nil // handles find the loaded entries
	}
	p.entries = make(map[string]*poolEntry, n)
	for i := 0; i < n; i++ {
		k := r.String()
		e := &poolEntry{lim: RateLimiter{rate: p.rate, burst: p.burst}, lastUsed: r.Duration(), pool: p}
		if err := e.lim.Load(r); err != nil {
			return err
		}
		if err := r.Err(); err != nil {
			return err
		}
		p.entries[k] = e
	}
	return r.Err()
}

// Save appends the ETag counter, the only mutable state: restored runs
// must mint the exact same tag strings as uninterrupted ones.
func (g *ETagGen) Save(w *snapshot.Writer) {
	w.U64(g.counter.Load())
}

// Load restores the ETag counter.
func (g *ETagGen) Load(r *snapshot.Reader) error {
	g.counter.Store(r.U64())
	return r.Err()
}
