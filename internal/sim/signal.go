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
