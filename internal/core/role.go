package core

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/sim"
)

// role is a worker role's loop as data, run as a process with no coroutine
// (sim.Env.GoCont) that issues each request with cloud.Client.Start: event
// for event the loop of blocking calls it stands for, without a process
// switch per request (DESIGN §17).
type role struct {
	phases []phase
	rounds int                  // the phases run this many times; 0 is once
	start  func() time.Duration // slept before the first phase, if set
	cl     *cloud.Client        // issues the requests, unless client picks one
	client func() *cloud.Client // (a geo client's region at that instant)
	res    workerResult

	at, round, i int           // the phase, the round, the iteration in the phase
	busy, held   bool          // a request is out; a follow-up waits out gap
	t0, opT, end time.Duration // the phase's and the iteration's start, the last iteration's end
	acc          *phaseTime    // the phase's timings; nil if it is untimed
	op           cloud.Op
}

// phase is n iterations, or with until set as many as begin before it: a
// request each, and the follow-ups its answers ask for. Under a name, each
// iteration is an operation of that phase, and the span from the phase's
// start to its last iteration's end adds to the worker's time in it.
type phase struct {
	name  string
	n     int
	until time.Duration
	// op sets request i up in o, which is zero at the phase's start and
	// then holds its last request: op sets each field request i reads and
	// clears Data after a read. then reads the answer; to follow it up, it
	// sets the next request up in o and reports true, and that goes out
	// gap later. Without then, an error in the answer is fatal, named what.
	op   func(i int, o *cloud.Op)
	then func(i int, o *cloud.Op) bool
	what string
	gap  time.Duration
	wait func() time.Duration // slept after each iteration (a think time), if set
}

// run starts worker0..worker<w-1>, each on a client of its own (one VM per
// worker role) running the role build returns, its timings kept in
// pt.results[k], and runs the environment until it drains.
func (pt *point) run(w int, build func(k int, cl *cloud.Client) *role) {
	pt.results = make([]workerResult, w)
	for k := range w {
		name := fmt.Sprintf("worker%d", k)
		cl := pt.c.NewClient(name, pt.s.cfg.VM)
		r := build(k, cl)
		r.cl, r.res = cl, workerResult{}
		pt.results[k] = r.res
		pt.env.GoCont(name, r)
	}
	pt.env.Run()
}

// Resume carries the role on from its last request or sleep to its next
// one, or to its end.
func (r *role) Resume(p *sim.Proc) {
	now := p.Now()
	if r.start != nil {
		p.Then(sim.Sleep(r.start()), sim.Call(r))
		r.start = nil
		return
	}
	if r.busy { // the request is answered, or its follow-up's gap is over
		ph := &r.phases[r.at]
		switch {
		case r.held:
			r.held = false
			r.issue(p)
			return
		case ph.then == nil:
			must(ph.what, r.op.Err)
		case ph.then(r.i, &r.op):
			if r.held = ph.gap > 0; r.held {
				p.Then(sim.Sleep(ph.gap), sim.Call(r))
			} else {
				r.issue(p)
			}
			return
		}
		r.busy, r.end = false, now
		if r.acc != nil {
			r.acc.opSum += now - r.opT
			r.acc.ops++
		}
		if r.i++; ph.wait != nil {
			p.Then(sim.Sleep(ph.wait()), sim.Call(r))
			return
		}
	}
	for r.at < len(r.phases) {
		ph := &r.phases[r.at]
		if r.i == 0 { // the phase starts
			r.t0, r.end, r.op = now, now, cloud.Op{}
			if r.acc = r.res[ph.name]; r.acc == nil && ph.name != "" {
				r.acc = &phaseTime{}
				r.res[ph.name] = r.acc
			}
		}
		if ph.until > 0 && now < ph.until || ph.until == 0 && r.i < ph.n {
			r.opT, r.busy = now, true
			ph.op(r.i, &r.op)
			r.issue(p)
			return
		}
		if r.acc != nil {
			r.acc.span += r.end - r.t0
		}
		if r.at, r.i = r.at+1, 0; r.at == len(r.phases) && r.round+1 < r.rounds {
			r.at, r.round = 0, r.round+1
		}
	}
}

func (r *role) issue(p *sim.Proc) {
	cl := r.cl
	if r.client != nil {
		cl = r.client()
	}
	cl.Start(p, &r.op, r)
}
