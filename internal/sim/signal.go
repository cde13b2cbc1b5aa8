package sim

// Signal is a one-shot broadcast event: processes Wait until some process
// (or kernel callback) Fires it; thereafter Wait returns immediately.
type Signal struct {
	env     *Env
	fired   bool
	waiters []*Proc
}

// NewSignal creates an unfired signal.
func NewSignal(env *Env) *Signal {
	return &Signal{env: env}
}

// Fire fires the signal, waking all waiters in FIFO order at the current
// instant. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for _, p := range s.waiters {
		s.env.wake(s.env.now, p)
	}
	s.waiters = nil
}

// Wait blocks until the signal fires (returns immediately if it already
// has).
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.env.mustBeRunning(p, "Signal.Wait")
	s.waiters = append(s.waiters, p)
	p.park()
}

// WaitGroup is a counting barrier analogous to sync.WaitGroup, but for
// simulation processes.
type WaitGroup struct {
	env     *Env
	count   int
	waiters []*Proc
}

// NewWaitGroup creates a WaitGroup with count zero.
func NewWaitGroup(env *Env) *WaitGroup {
	return &WaitGroup{env: env}
}

// Add adds delta (which may be negative) to the counter. If the counter
// reaches zero, all waiters wake. It panics if the counter goes negative.
func (w *WaitGroup) Add(delta int) {
	w.count += delta
	if w.count < 0 {
		panic("sim: WaitGroup counter went negative")
	}
	if w.count == 0 {
		for _, p := range w.waiters {
			w.env.wake(w.env.now, p)
		}
		w.waiters = nil
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Count returns the current counter value.
func (w *WaitGroup) Count() int { return w.count }

// Wait blocks until the counter is zero. If it is already zero, Wait
// returns immediately.
func (w *WaitGroup) Wait(p *Proc) {
	if w.count == 0 {
		return
	}
	w.env.mustBeRunning(p, "WaitGroup.Wait")
	w.waiters = append(w.waiters, p)
	p.park()
}
