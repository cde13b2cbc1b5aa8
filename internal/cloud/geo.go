package cloud

import (
	"fmt"
	"time"

	"azurebench/internal/faults"
	"azurebench/internal/georepl"
	"azurebench/internal/model"
	"azurebench/internal/netmodel"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	"azurebench/internal/telemetry"
	"azurebench/internal/trace"
)

// Region names of a geo-replicated account's two datacenters.
const (
	RegionPrimary   = "primary"
	RegionSecondary = "secondary"
)

// GeoAccount is a geo-redundant storage account: two full Cloud instances
// in different regions, an asymmetric WAN link between them, a forward
// replication stream mirroring every committed primary mutation onto the
// secondary, and the failover state machine that promotes the secondary
// when the primary region goes dark.
type GeoAccount struct {
	env  *sim.Env
	prm  model.Params
	link netmodel.WANLink

	pri *Cloud
	sec *Cloud

	account *georepl.Account
	forward *georepl.Stream // primary -> secondary (frozen at failover)
	reverse *georepl.Stream // secondary -> old primary (created at failover)

	traceLog *trace.Log
	// ids mints span identifiers for the shipper/controller trace ops
	// (seeded, never the simulation PRNG); nil while tracing is detached.
	ids *trace.IDGen
}

// NewGeoAccount builds the paired clouds and starts the forward
// replication stream. Both clouds share prm; the WAN link and lag bound
// come from the Geo* parameters.
func NewGeoAccount(env *sim.Env, prm model.Params) (*GeoAccount, error) {
	link := netmodel.WANLink{
		Name:       "geo",
		RTT:        prm.GeoWANRTT,
		ForwardBps: prm.GeoWANForwardBps,
		ReverseBps: prm.GeoWANReverseBps,
	}
	if err := link.Validate(); err != nil {
		return nil, err
	}
	g := &GeoAccount{
		env:     env,
		prm:     prm,
		link:    link,
		pri:     NewInRegion(env, prm, RegionPrimary),
		sec:     NewInRegion(env, prm, RegionSecondary),
		account: georepl.NewAccount("geo"),
	}
	fwd, err := georepl.NewStream(env, georepl.Config{
		Name:     RegionPrimary + "->" + RegionSecondary,
		LagBound: prm.GeoReplicationLagBound,
		Delay:    link.ForwardDelay,
	})
	if err != nil {
		return nil, err
	}
	g.forward = fwd
	g.installShipTrace(fwd)
	g.pri.SetGeoStream(fwd, g.sec)
	fwd.Start()
	return g, nil
}

// Secondary returns the secondary-region cloud.
func (g *GeoAccount) Secondary() *Cloud { return g.sec }

// Account returns the failover state machine.
func (g *GeoAccount) Account() *georepl.Account { return g.account }

// Forward returns the primary->secondary replication stream.
func (g *GeoAccount) Forward() *georepl.Stream { return g.forward }

// Reverse returns the failback stream (nil until a failover promotes the
// secondary).
func (g *GeoAccount) Reverse() *georepl.Stream { return g.reverse }

// SecondaryStream returns the stream replicating into the current
// geo-secondary: the forward stream while healthy, the reverse stream
// once the secondary has been promoted.
func (g *GeoAccount) SecondaryStream() *georepl.Stream {
	if g.account.ActiveIsSecondary() {
		return g.reverse
	}
	return g.forward
}

// LastSyncTime returns the secondary's RA-GRS staleness marker: the
// primary commit time of the newest mutation the current geo-secondary
// has applied. Zero before anything replicates.
func (g *GeoAccount) LastSyncTime() time.Duration {
	return g.SecondaryStream().LastSyncTime()
}

// SetTrace attaches an operation log to both regions and to the WAN
// shipper (batches appear as geo-service ops with a "wan" span).
func (g *GeoAccount) SetTrace(l *trace.Log) {
	g.traceLog = l
	if l != nil && g.ids == nil {
		g.ids = l.IDs("geo")
	}
	g.pri.SetTrace(l)
	g.sec.SetTrace(l)
}

// SetFaults attaches one injector to both regions. Outage windows carry a
// Region and therefore only hit the cloud they name; sharing the injector
// keeps window-only plans PRNG-free for both regions.
func (g *GeoAccount) SetFaults(in *faults.Injector) {
	g.pri.SetFaults(in)
	g.sec.SetFaults(in)
}

// Stations enumerates both regions' stations plus the WAN stations, for
// telemetry sampling.
func (g *GeoAccount) Stations() []telemetry.Station {
	out := append(g.pri.Stations(), g.sec.Stations()...)
	out = append(out, telemetry.Station{Name: g.forward.WAN().Name(), Res: g.forward.WAN()})
	if g.reverse != nil {
		out = append(out, telemetry.Station{Name: g.reverse.WAN().Name(), Res: g.reverse.WAN()})
	}
	return out
}

// installShipTrace records each shipped batch as a zero-client trace op
// carrying a WAN span, so replication traffic shares the experiment's
// timeline — plus, per record that carries a causal identity, one child
// op parented under the primary mutation that produced it, which is what
// turns geo-replication into subtrees of the originating requests.
func (g *GeoAccount) installShipTrace(s *georepl.Stream) {
	s.SetOnShip(func(start, end time.Duration, recs []*georepl.Record, bytes int64) {
		if g.traceLog == nil {
			return
		}
		batch := trace.Op{
			Start:    start,
			Duration: end - start,
			Client:   "geo-shipper",
			Service:  "geo",
			Name:     "ShipBatch",
			Bytes:    bytes,
			Tag:      fmt.Sprintf("%d records over %s", len(recs), s.WAN().Name()),
			Spans:    []trace.Span{{Stage: trace.StageWAN, Dur: end - start}},
		}
		if g.ids != nil {
			batch.TraceID, batch.SpanID = g.ids.TraceID(), g.ids.SpanID()
		}
		g.traceLog.Record(batch)
		for _, r := range recs {
			if r.TraceID == "" || g.ids == nil {
				continue
			}
			g.traceLog.Record(trace.Op{
				Start:    start,
				Duration: end - start,
				Client:   "geo-shipper",
				Service:  "geo",
				Name:     "Replicate" + r.Op,
				Bytes:    r.Bytes,
				Tag:      r.Service + "/" + r.Part,
				TraceID:  r.TraceID,
				SpanID:   g.ids.SpanID(),
				ParentID: r.SpanID,
				Spans:    []trace.Span{{Stage: trace.StageWAN, Dur: end - start}},
			})
		}
	})
}

// noteTransition records a failover state change as a trace op.
func (g *GeoAccount) noteTransition(at time.Duration, name, tag string) {
	if g.traceLog == nil {
		return
	}
	op := trace.Op{
		Start:   at,
		Client:  "geo-controller",
		Service: "geo",
		Name:    name,
		Tag:     tag,
	}
	if g.ids != nil {
		op.TraceID, op.SpanID = g.ids.TraceID(), g.ids.SpanID()
	}
	g.traceLog.Record(op)
}

// OutageWindow returns the region-scoped fault window matching a
// scheduled primary-region outage — compose it into the run's fault plan
// so every primary request inside the window fails with
// ServerUnavailable.
func OutageWindow(start, duration time.Duration) faults.Window {
	return faults.Window{Region: RegionPrimary, Start: start, Duration: duration}
}

// ScheduleFailover launches the failover controller for a primary-region
// outage of the given window (which must also be injected via the fault
// plan — see OutageWindow). The controller walks the account through the
// full cycle: after GeoFailoverDetection of outage it freezes the forward
// stream (everything unshipped is the RPO), promotes the secondary's
// partition maps (clients converge through the PartitionMoved/handoff
// machinery), and starts the reverse stream; when the outage lifts it
// enters failback and returns to healthy once the old primary has caught
// up. Roles stay swapped.
func (g *GeoAccount) ScheduleFailover(start, duration time.Duration) {
	g.env.GoAt(start, "geo-failover", func(p *sim.Proc) {
		now := p.Now()
		if err := g.account.To(now, georepl.StatePrimaryOutage, "primary region outage"); err != nil {
			panic(err)
		}
		g.noteTransition(now, "GeoOutageDetected", g.account.State().String())

		// The outage takes the primary's WAN egress down with it: freeze
		// the forward stream now. Everything committed but unshipped at
		// this instant is the RPO.
		lost := g.forward.Freeze(now)
		for _, r := range lost {
			g.account.RecordLoss(r.Service, 1)
		}

		p.Sleep(g.prm.GeoFailoverDetection)
		now = p.Now()

		// Promote the secondary's partition maps.
		ranges := g.sec.PartitionMgr().Promote(now, g.prm.GeoPromotionBlackout)
		if err := g.account.To(now, georepl.StateFailoverPromoted, "detection window elapsed"); err != nil {
			panic(err)
		}
		g.noteTransition(now, "GeoPromote",
			fmt.Sprintf("lost=%d ranges=%d", len(lost), ranges))

		// The promoted region replicates back to the old primary once it
		// returns; mutations committed meanwhile queue on the reverse
		// stream.
		rev, err := georepl.NewStream(g.env, georepl.Config{
			Name:     RegionSecondary + "->" + RegionPrimary,
			LagBound: g.prm.GeoReplicationLagBound,
			Delay:    g.link.ReverseDelay,
		})
		if err != nil {
			panic(err)
		}
		g.reverse = rev
		g.installShipTrace(rev)
		g.sec.SetGeoStream(rev, g.pri)
		rev.Start()

		if end := start + duration; end > now {
			p.Sleep(end - now)
		}
		now = p.Now()
		if err := g.account.To(now, georepl.StateFailback, "primary region recovered"); err != nil {
			panic(err)
		}
		g.noteTransition(now, "GeoFailback", "replaying into old primary")

		g.reverse.WaitDrained(p)
		now = p.Now()
		if err := g.account.To(now, georepl.StateHealthy, "old primary caught up"); err != nil {
			panic(err)
		}
		g.noteTransition(now, "GeoHealthy", "roles remain swapped")
	})
}

// GeoClient is a client of a geo-replicated account: it holds one Client
// per region, routes writes to the active region, and exposes the
// geo-secondary for RA-GRS reads. A request sent through Active follows
// the active region from one attempt to the next, so one that keeps
// failing into a primary outage lands on the promoted secondary once the
// failover completes — the client-visible RTO path.
type GeoClient struct {
	geo *GeoAccount
	pri *Client
	sec *Client
}

// NewGeoClient creates a client pair (one VM per region) with the given
// name.
func (g *GeoAccount) NewGeoClient(name string, vm model.VMSize) *GeoClient {
	gc := &GeoClient{
		geo: g,
		pri: g.pri.NewClient(name, vm),
		sec: g.sec.NewClient(name, vm),
	}
	gc.pri.geo, gc.sec.geo = gc, gc
	return gc
}

// Active returns the client bound to the region currently serving writes.
func (gc *GeoClient) Active() *Client {
	if gc.geo.account.ActiveIsSecondary() {
		return gc.sec
	}
	return gc.pri
}

// Secondary returns the client bound to the current geo-secondary — the
// RA-GRS read endpoint.
func (gc *GeoClient) Secondary() *Client {
	if gc.geo.account.ActiveIsSecondary() {
		return gc.pri
	}
	return gc.sec
}

// SetRetryPolicy sets the retry policy of both region clients.
func (gc *GeoClient) SetRetryPolicy(pol retry.Policy) {
	gc.pri.SetRetryPolicy(pol)
	gc.sec.SetRetryPolicy(pol)
}
