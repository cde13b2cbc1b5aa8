package scenario

import (
	"fmt"
	"slices"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/core"
)

// Door lets the external both-doors test drive the workload driver's
// setup and perform one scripted op at a time on any substrate.
type Door struct {
	e       *engine
	clients []*clientState
}

// NewDoor builds a driver for sp on the substrate with n workload clients.
func NewDoor(rt Runtime, dial func(name string) Store, sp *Spec, n int) *Door {
	d := &Door{e: &engine{sp: sp, rt: rt, dial: dial, seed: 1}}
	for i := 0; i < n; i++ {
		d.clients = append(d.clients, &clientState{store: dial("client")})
	}
	return d
}

// Setup runs the spec's setup stanza.
func (d *Door) Setup() error { return d.e.setup() }

// Perform runs one op of the vocabulary as the given client, inside a
// process of the door's runtime, the way a phase would.
func (d *Door) Perform(client int, ph Phase, op string, key int) (miss bool, err error) {
	code := slices.Index(opKinds, op)
	if code < 0 {
		return false, fmt.Errorf("scenario: unknown op %q", op)
	}
	s := &doorStep{call: call{e: d.e, st: d.clients[client], ph: &ph}, code: opCode(code), key: key}
	d.e.rt.Go("step", s)
	d.e.rt.Wait()
	return s.miss, s.err
}

// doorStep is a process that makes one call and ends.
type doorStep struct {
	call
	code opCode
	key  int
}

func (s *doorStep) Resume(p Proc) {
	if s.then == nil {
		s.start(p, s.code, s.key, s)
	}
}

// Do makes one op, which the vocabulary need not be able to spell, as the
// given client, inside a process of the door's runtime, and returns its
// error.
func (d *Door) Do(client int, op cloud.Op) error {
	s := &rawStep{st: d.clients[client].store, op: op}
	d.e.rt.Go("raw", s)
	d.e.rt.Wait()
	return s.op.Err
}

// rawStep is a process that makes one op and ends.
type rawStep struct {
	st      Store
	op      cloud.Op
	started bool
}

func (s *rawStep) Resume(p Proc) {
	if !s.started {
		s.started = true
		s.st.Start(p, &s.op, s)
	}
}

// Sleep lets d pass on the door's runtime clock.
func (d *Door) Sleep(dur time.Duration) {
	d.e.rt.Go("sleep", sleeper(dur))
	d.e.rt.Wait()
}

// sleeper is a process that waits and ends.
type sleeper time.Duration

func (s sleeper) Resume(p Proc) {
	if s > 0 {
		p.After(time.Duration(s), sleeper(0))
	}
}

// SimSubstrate returns a fresh simulated substrate and the cloud behind it.
func SimSubstrate(s *core.Suite) (Runtime, func(name string) Store, *cloud.Cloud) {
	env, c := s.ScenarioCloud()
	return simRuntime{env}, simDial(c), c
}
