// Package faults is the deterministic fault-injection layer of the
// simulated cloud. A Plan describes what can go wrong — probability-driven
// rules (request timeouts, InternalError 500s, connection resets
// mid-transfer) and schedule-driven partition-server outage windows — and
// an Injector compiled from the plan decides, request by request, whether
// and how a storage round trip fails.
//
// Determinism is the design constraint: the injector owns its own
// splitmix64 PRNG stream, seeded from the plan, and never touches the
// simulation environment's PRNG. Two runs with the same seed therefore
// produce the identical fault schedule, and an injector whose plan is
// empty (or absent entirely) perturbs neither the event timeline nor the
// random stream of a fault-free run — the happy path stays bit-identical.
//
// How each fault manifests on the wire is the cloud layer's business
// (internal/cloud wires decisions into its request pipeline); this package
// only answers "does this request fail, and in what way".
package faults

import (
	"fmt"
	"strings"
	"time"

	"azurebench/internal/sim"
)

// Kind enumerates the injectable failure modes.
type Kind int

// Failure modes.
const (
	// None: the request proceeds normally.
	None Kind = iota
	// Timeout: the request is lost in the network; the client waits out
	// its timeout and surfaces OperationTimedOut. The engine never sees
	// the operation.
	Timeout
	// Internal: the partition server accepts the request, burns some
	// occupancy, and fails with InternalError before the engine commits.
	Internal
	// Reset: the connection dies mid-transfer; a fraction of the payload
	// crosses the NIC (and is charged against the bandwidth model) before
	// the client surfaces ConnectionReset.
	Reset
	// Outage: the partition server is inside an unavailability window;
	// the front door fails the request immediately with ServerUnavailable.
	Outage
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Timeout:
		return "timeout"
	case Internal:
		return "internal"
	case Reset:
		return "reset"
	case Outage:
		return "outage"
	}
	return "?"
}

// Rule is one probability-driven fault source: requests matching
// Service/Op fail with Kind at Rate.
type Rule struct {
	Service string // "blob" | "queue" | "table" | "cache"; "" matches all
	Op      string // operation name (e.g. "DeleteMessage"); "" matches all
	Kind    Kind
	Rate    float64 // per-request probability in [0, 1]
}

func (r Rule) matches(service, op string) bool {
	return (r.Service == "" || r.Service == service) &&
		(r.Op == "" || r.Op == op)
}

// Window is one schedule-driven partition-server outage: every request
// routed to a matching station during [Start, Start+Duration) fails.
type Window struct {
	// Region scopes the window to one datacenter region ("" matches every
	// region, which keeps single-region plans written before geo-replication
	// existed working unchanged). A region-wide outage names the region and
	// leaves Service/Station empty.
	Region   string
	Service  string        // "" matches every service
	Station  string        // exact station name (e.g. "queue:jobs"); "" = all
	Start    time.Duration // virtual time the outage begins
	Duration time.Duration
}

func (w Window) covers(now time.Duration, region, service, station string) bool {
	if w.Region != "" && w.Region != region {
		return false
	}
	if w.Service != "" && w.Service != service {
		return false
	}
	if w.Station != "" && w.Station != station {
		return false
	}
	return now >= w.Start && now < w.Start+w.Duration
}

// Plan is a complete fault schedule for one simulation run.
type Plan struct {
	// Seed feeds the injector's private PRNG; the same seed over the same
	// request sequence reproduces the same faults.
	Seed int64
	// Rules are evaluated in order; the first rule that matches and fires
	// decides the request's fate.
	Rules []Rule
	// Outages are checked before the rules (a downed server fails every
	// request regardless of probabilities).
	Outages []Window

	// Timeout is the client-side wait before a lost request is abandoned
	// (default 30 s, the classic SDK default).
	Timeout time.Duration
	// InternalOcc is the server occupancy a failing request burns before
	// the 500 comes back (default 5 ms).
	InternalOcc time.Duration
	// MinCut and MaxCut bound the fraction of payload transferred before
	// a connection reset (defaults 0.1 and 0.9).
	MinCut, MaxCut float64
}

// Uniform returns a plan injecting each of the three probability-driven
// kinds at rate/3 across all services — the standard mix the fault
// experiment sweeps.
func Uniform(seed int64, rate float64) Plan {
	each := rate / 3
	return Plan{
		Seed: seed,
		Rules: []Rule{
			{Kind: Timeout, Rate: each},
			{Kind: Internal, Rate: each},
			{Kind: Reset, Rate: each},
		},
	}
}

// Decision is the injector's verdict on one request.
type Decision struct {
	Kind Kind
	// Wait is the client-side timeout to burn (Timeout).
	Wait time.Duration
	// Occ is the server occupancy to burn before failing (Internal).
	Occ time.Duration
	// Cut is the fraction of the payload transferred before the
	// connection dies (Reset).
	Cut float64
}

// Event records one injected fault for schedule inspection and the
// determinism guard.
type Event struct {
	At      time.Duration
	Service string
	Op      string
	Station string
	Kind    Kind
}

// Stats counts injector activity.
type Stats struct {
	Decisions uint64 // requests consulted
	Timeouts  uint64
	Internals uint64
	Resets    uint64
	Outages   uint64
}

// Injected returns the total faults of all kinds.
func (s Stats) Injected() uint64 {
	return s.Timeouts + s.Internals + s.Resets + s.Outages
}

// maxEvents bounds the retained schedule; beyond it only counters grow.
const maxEvents = 1 << 16

// Injector decides request fates according to a Plan. It is not safe for
// concurrent use; the simulation's cooperative scheduling serialises all
// calls, which is also what makes the fault schedule reproducible.
type Injector struct {
	plan   Plan
	rng    *sim.Rand
	stats  Stats
	events []Event
}

// NewInjector compiles a plan, applying defaults for unset knobs.
func NewInjector(plan Plan) *Injector {
	if plan.Timeout <= 0 {
		plan.Timeout = 30 * time.Second
	}
	if plan.InternalOcc <= 0 {
		plan.InternalOcc = 5 * time.Millisecond
	}
	if plan.MinCut <= 0 {
		plan.MinCut = 0.1
	}
	if plan.MaxCut <= 0 || plan.MaxCut > 1 {
		plan.MaxCut = 0.9
	}
	if plan.MaxCut < plan.MinCut {
		plan.MinCut, plan.MaxCut = plan.MaxCut, plan.MinCut
	}
	return &Injector{plan: plan, rng: sim.NewRand(plan.Seed)}
}

// Stats returns a snapshot of injector counters. Safe on nil.
func (in *Injector) Stats() Stats {
	if in == nil {
		return Stats{}
	}
	return in.stats
}

// Schedule renders the retained fault schedule one event per line — the
// artifact the determinism guard compares across runs.
func (in *Injector) Schedule() string {
	if in == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range in.events {
		fmt.Fprintf(&b, "%v %s/%s@%s %s\n", e.At, e.Service, e.Op, e.Station, e.Kind)
	}
	return b.String()
}

// DecideIn returns the fate of a request arriving now in region for the
// given service/op routed to station. A nil injector never injects.
// Decisions are drawn from the injector's private PRNG in call order, so a
// fixed request sequence yields a fixed fault schedule. Outage windows
// carrying a Region only cover requests arriving in that region ("" is
// the default, unnamed one), so one injector can serve the paired clouds
// of a geo-replicated account. Overlapping windows covering the same
// request still count it exactly once in Stats.Outages — the first
// covering window decides.
func (in *Injector) DecideIn(now time.Duration, region, service, op, station string) Decision {
	if in == nil {
		return Decision{}
	}
	in.stats.Decisions++
	for _, w := range in.plan.Outages {
		if w.covers(now, region, service, station) {
			in.stats.Outages++
			in.record(now, service, op, station, Outage)
			return Decision{Kind: Outage}
		}
	}
	for _, r := range in.plan.Rules {
		if r.Rate <= 0 || r.Kind == None || !r.matches(service, op) {
			continue
		}
		if in.rng.Float64() >= r.Rate {
			continue
		}
		dec := Decision{Kind: r.Kind}
		switch r.Kind {
		case Timeout:
			dec.Wait = in.plan.Timeout
			in.stats.Timeouts++
		case Internal:
			dec.Occ = in.plan.InternalOcc
			in.stats.Internals++
		case Reset:
			dec.Cut = in.plan.MinCut + in.rng.Float64()*(in.plan.MaxCut-in.plan.MinCut)
			in.stats.Resets++
		}
		in.record(now, service, op, station, r.Kind)
		return dec
	}
	return Decision{}
}

func (in *Injector) record(now time.Duration, service, op, station string, k Kind) {
	if len(in.events) < maxEvents {
		in.events = append(in.events, Event{At: now, Service: service, Op: op, Station: station, Kind: k})
	}
}
