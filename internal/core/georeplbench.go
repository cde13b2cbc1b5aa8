package core

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/faults"
	"azurebench/internal/georepl"
	"azurebench/internal/metrics"
	"azurebench/internal/payload"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
)

// geoQueue is the queue the georepl writers commit into.
const geoQueue = "geo-writes"

// geoPoint is the measured outcome of one geo run at one lag bound.
type geoPoint struct {
	*point // env only: the geo account builds its own clouds
	lag    time.Duration

	writes       int // puts committed by the writer fleet
	rpoByService map[string]uint64
	rpoTotal     uint64        // records lost at the forward-stream freeze
	rtoPromotion time.Duration // outage start -> secondary promoted
	rtoClient    time.Duration // outage start -> first client write success
	stale        metrics.Dist  // RA-GRS staleness samples (now - LastSyncTime)
	staleSeries  []geoStaleSample

	forward    georepl.Stats
	reverse    georepl.Stats
	promotions uint64
}

// geoStaleSample is one reader observation for the staleness timeline.
type geoStaleSample struct {
	at    time.Duration
	stale time.Duration
}

// geoRetryPolicy is the writer discipline: it must ride out the full
// outage-detection window, so the deadline scales with the configured
// outage rather than the per-op default.
func geoRetryPolicy(outage, detection time.Duration) retry.Policy {
	pol := retry.Resilient()
	pol.MaxAttempts = 100
	pol.BaseDelay = 100 * time.Millisecond
	pol.MaxDelay = time.Second
	pol.Deadline = outage + detection + 30*time.Second
	return pol
}

// runGeoreplPoint executes the georepl scenario once: a writer fleet
// commits through a GeoClient while a primary-region outage forces a
// failover, and RA-GRS readers poll the secondary measuring staleness.
func (s *Suite) runGeoreplPoint(lag time.Duration) *geoPoint {
	failAt := s.cfg.GeoFailoverAt
	outage := s.cfg.GeoOutageDuration
	horizon := s.cfg.GeoHorizon

	// The failover path exercises the partition-map promotion protocol,
	// so the secondary must run the dynamic manager.
	sub := s.withParams(func(p *paramsAlias) {
		if p.GeoRegions < 2 {
			p.GeoRegions = 2 // the scenario is two-region by construction
		}
		p.GeoReplicationLagBound = lag
		p.PartitionDynamic = true
	})
	env := sim.NewEnv(sub.cfg.Seed)
	g, err := cloud.NewGeoAccount(env, sub.cfg.Params)
	if err != nil {
		panic(fmt.Sprintf("georepl: %v", err))
	}
	if sub.traceLog != nil {
		g.SetTrace(sub.traceLog)
	}
	g.SetFaults(faults.NewInjector(faults.Plan{
		Outages: []faults.Window{cloud.OutageWindow(failAt, outage)},
	}))
	g.ScheduleFailover(failAt, outage)
	sub.armCheckpoint(env, g.RegisterSnapshot)
	pt := &geoPoint{point: sub.pointOn(env, nil), lag: lag}
	pt.sample(g.Stations, fmt.Sprintf("georepl/lag=%v", lag))
	pol := geoRetryPolicy(outage, sub.cfg.Params.GeoFailoverDetection)
	workers := sub.cfg.GeoWorkers
	if workers < 1 {
		workers = 1
	}
	readers := sub.cfg.GeoReaders

	var firstOK time.Duration // first write success whose attempt began inside the outage
	for k := 0; k < workers; k++ {
		gc := g.NewGeoClient(fmt.Sprintf("geo-writer%d", k), s.cfg.VM)
		gc.SetRetryPolicy(pol)
		var began time.Duration
		env.GoCont(fmt.Sprintf("geo-writer%d", k), &role{client: gc.Active, phases: []phase{
			{what: "georepl create queue", n: 1, op: func(_ int, o *cloud.Op) {
				o.Kind, o.Name = cloud.OpCreateQueueIfNotExists, geoQueue
			}},
			{until: horizon, op: func(_ int, o *cloud.Op) {
				began = env.Now()
				o.Kind, o.Name, o.Data = cloud.OpPutMessage, geoQueue, payload.Zero(storecommon.KB)
			}, then: func(_ int, o *cloud.Op) bool {
				must("georepl put", o.Err)
				pt.writes++
				if firstOK == 0 && began >= failAt {
					firstOK = env.Now()
				}
				return false
			}, wait: func() time.Duration { return 100 * time.Millisecond }},
		}})
	}
	for j := 0; j < readers; j++ {
		gc := g.NewGeoClient(fmt.Sprintf("geo-reader%d", j), s.cfg.VM)
		gc.SetRetryPolicy(retry.Policy{}) // one attempt: a failed read is the next poll's to make
		env.GoCont(fmt.Sprintf("geo-reader%d", j), &role{client: gc.Secondary, phases: []phase{{until: horizon, op: func(_ int, o *cloud.Op) {
			o.Kind, o.Name = cloud.OpGetMessageCount, geoQueue
		}, then: func(_ int, o *cloud.Op) bool {
			// RA-GRS read against whichever region is currently the
			// geo-secondary. Early reads race the first replication batch
			// (NotFound) and post-promotion reads target the dark old
			// primary (transient) — both are expected.
			if err := o.Err; err == nil {
				if sync := g.LastSyncTime(); sync > 0 {
					stale := env.Now() - sync
					pt.stale.Add(stale)
					if j == 0 {
						pt.staleSeries = append(pt.staleSeries, geoStaleSample{at: env.Now(), stale: stale})
					}
				}
			} else if !storecommon.IsNotFound(err) && !storecommon.IsTransient(err) && !storecommon.IsServerBusy(err) {
				panic(fmt.Sprintf("georepl secondary read: %v", err))
			}
			return false
		}, wait: func() time.Duration { return 250 * time.Millisecond }}}})
	}
	env.Run()

	acct := g.Account()
	pt.rpoByService = map[string]uint64{}
	for _, svc := range []string{"blob", "queue", "table"} {
		pt.rpoByService[svc] = acct.Lost(svc)
	}
	pt.rpoTotal = acct.TotalLost()
	if promotedAt, ok := acct.PromotedAt(); ok {
		pt.rtoPromotion = promotedAt - failAt
	}
	if firstOK > 0 {
		pt.rtoClient = firstOK - failAt
	}
	pt.forward = g.Forward().Stats()
	if g.Reverse() != nil {
		pt.reverse = g.Reverse().Stats()
	}
	pt.promotions = g.Secondary().PartitionMgr().Stats().Promotions
	return pt
}

// RunGeorepl sweeps the replication lag bound over a fixed region-outage
// failover scenario and reports, per bound: the RPO (records lost at the
// forward-stream freeze), the RTO (both the controller's promotion delay
// and the client-observed write-recovery time), and the RA-GRS staleness
// the secondary readers saw.
func (s *Suite) RunGeorepl() *Report {
	wall := wallStopwatch()
	bounds := s.cfg.GeoLagBounds
	if len(bounds) == 0 {
		bounds = DefaultConfig().GeoLagBounds
	}

	timeline := metrics.Figure{
		Title:  "RA-GRS secondary staleness over time (primary outage at the marked window)",
		XLabel: "virtual time (s)",
		YLabel: "staleness (ms)",
	}
	summary := metrics.Figure{
		Title:  "RPO/RTO vs replication lag bound",
		XLabel: "lag bound (s)",
		YLabel: "value (per-series unit)",
	}
	var notes []string
	geo := make([]*geoPoint, len(bounds))
	pts := sweep(s, len(bounds), func(i int) *point {
		geo[i] = s.runGeoreplPoint(bounds[i])
		return geo[i].point
	})
	for _, pt := range geo {
		lag := pt.lag
		series := fmt.Sprintf("lag=%v", lag)
		for _, sample := range pt.staleSeries {
			timeline.AddPoint(series, metrics.Seconds(sample.at), float64(sample.stale)/float64(time.Millisecond))
		}
		x := metrics.Seconds(lag)
		summary.AddPoint("rpo (records)", x, float64(pt.rpoTotal))
		summary.AddPoint("rto promotion (s)", x, metrics.Seconds(pt.rtoPromotion))
		summary.AddPoint("rto client (s)", x, metrics.Seconds(pt.rtoClient))
		summary.AddPoint("staleness p95 (ms)", x, float64(pt.stale.Percentile(95))/float64(time.Millisecond))

		var ctr metrics.Counters
		ctr.Add("writes committed", float64(pt.writes))
		ctr.Add("rpo records lost", float64(pt.rpoTotal))
		ctr.Add("rpo lost (queue)", float64(pt.rpoByService["queue"]))
		ctr.Add("rto promotion ms", float64(pt.rtoPromotion)/float64(time.Millisecond))
		ctr.Add("rto client ms", float64(pt.rtoClient)/float64(time.Millisecond))
		ctr.Add("staleness mean ms", float64(pt.stale.Mean())/float64(time.Millisecond))
		ctr.Add("staleness p95 ms", float64(pt.stale.Percentile(95))/float64(time.Millisecond))
		ctr.Add("staleness max ms", float64(pt.stale.Max())/float64(time.Millisecond))
		ctr.Add("fwd records applied", float64(pt.forward.Applied))
		ctr.Add("fwd batches", float64(pt.forward.Batches))
		ctr.Add("fwd bytes shipped", float64(pt.forward.BytesShipped))
		ctr.Add("fwd lag-bound violations", float64(pt.forward.BoundExceeded))
		ctr.Add("rev records applied", float64(pt.reverse.Applied))
		ctr.Add("partition-map promotions", float64(pt.promotions))
		notes = append(notes, fmt.Sprintf("lag bound %v:\n%s", lag, ctr.Render()))
	}
	notes = append(notes, fmt.Sprintf(
		"%d writers, %d RA-GRS readers; primary-region outage at %v for %v, horizon %v; failover detection %v",
		s.cfg.GeoWorkers, s.cfg.GeoReaders, s.cfg.GeoFailoverAt, s.cfg.GeoOutageDuration,
		s.cfg.GeoHorizon, s.cfg.Params.GeoFailoverDetection))
	// With telemetry on, the widest lag bound's stations (queue servers,
	// WAN links) around the outage render below the figures, as fig6's and
	// throttle's busiest points do.
	if len(pts) > 0 && pts[len(pts)-1].sampler != nil {
		notes = append(notes, "\n"+pts[len(pts)-1].sampler.RenderTop(3))
	}

	return finish(s, &Report{
		ID:      "georepl",
		Title:   "Geo-replicated account: RPO/RTO across a region-outage failover and RA-GRS staleness",
		Figures: []metrics.Figure{timeline, summary},
		Notes:   notes,
		Wall:    wall(),
	}, pts)
}
