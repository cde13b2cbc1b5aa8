package core

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/metrics"
	"azurebench/internal/payload"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/workload"
)

// hotspotTable is the table every hotspot worker reads.
const hotspotTable = "HotspotTable"

// hotspotRetryPolicy is the discipline hotspot workers run under. The
// default classifier (IsRetriable) covers the partition-map protocol:
// PartitionMoved redirects retry immediately against a refreshed map and
// handoff ServerBusy rides out the migration blackout on backoff.
func hotspotRetryPolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts: 10,
		BaseDelay:   50 * time.Millisecond,
		Multiplier:  2,
		MaxDelay:    time.Second,
		Jitter:      0.2,
		Deadline:    30 * time.Second,
	}
}

// RunHotspot drives a zipfian point-read workload against one table twice
// — under the paper's static first-sight placement and under the dynamic
// partition manager — and reports throughput over time. The key
// distribution is skewed (YCSB zipfian, θ=0.99 by default) and keys sort
// so the hot ranks cluster at the low end of the keyspace; halfway
// through, the hot end flips to the top of the keyspace, so the dynamic
// master must re-split the new hot ranges while migrating and merging the
// now-cold ones. Static placement rides out both phases with whatever
// spread first-sight round-robin happened to give it; the dynamic curve
// dips at each disruption and recovers above the static ceiling.
func (s *Suite) RunHotspot() *Report {
	wall := wallStopwatch()
	fig := metrics.Figure{
		Title:  "Throughput under a zipfian hotspot: static vs dynamic partition placement",
		XLabel: "virtual time (s)",
		YLabel: "reads/s",
	}
	workers := s.cfg.HotspotWorkers
	if workers < 1 {
		workers = DefaultConfig().HotspotWorkers
	}
	keys := s.cfg.HotspotKeys
	if keys < 2 {
		keys = DefaultConfig().HotspotKeys
	}
	horizon := s.cfg.HotspotHorizon
	if horizon <= 0 {
		horizon = DefaultConfig().HotspotHorizon
	}
	theta := s.cfg.HotspotTheta
	// Key names, formatted once: both modes load and read them.
	names := make([]string, keys)
	for i := range names {
		names[i] = workload.Key(i)
	}

	labels := []string{"static", "dynamic"}
	reads := make([][]int, len(labels)) // completed per virtual second
	stats := make([]cloud.Stats, len(labels))
	pts := sweep(s, len(labels), func(i int) *point {
		label, dynamic := labels[i], i == 1
		sub := s.withParams(func(p *paramsAlias) { p.PartitionDynamic = dynamic })
		pt := sub.newPoint()

		// Load phase: create the table and insert every key sequentially.
		// The insert rate stays far below the split threshold, so the
		// dynamic map is still a single range when measurement begins.
		pt.setup(func(p *sim.Proc, setup *cloud.Client) {
			setup.SetRetryPolicy(hotspotRetryPolicy())
			_, err := setup.CreateTableIfNotExists(p, hotspotTable)
			must("create table", err)
			// One entity, rewritten for each insert: the store files a copy.
			e := &tablestore.Entity{RowKey: "row", Props: map[string]tablestore.Value{}}
			for i := 0; i < keys; i++ {
				e.PartitionKey = names[i]
				e.Props["Data"] = tablestore.Binary(payload.Synthetic(uint64(s.cfg.Seed)+uint64(i), storecommon.KB))
				_, err := setup.InsertEntity(p, hotspotTable, e)
				must("insert entity", err)
			}
		})
		pt.sample(pt.c.Stations, "hotspot/"+label)

		// Measurement phase: closed-loop zipfian point reads. perSec is
		// shared across worker processes — the DES is single-threaded.
		env := pt.env
		start := env.Now()
		perSec := make([]int, int(horizon/time.Second))
		pt.run(workers, func(k int, cl *cloud.Client) *role {
			cl.SetRetryPolicy(hotspotRetryPolicy())
			zipf := workload.NewZipf(sim.NewRand(s.cfg.Seed^int64(k)<<17), theta)
			return &role{phases: []phase{{until: start + horizon, op: func(_ int, o *cloud.Op) {
				rank := zipf.Next(keys)
				idx := rank
				if env.Now() >= start+horizon/2 {
					// The hotspot flips to the top of the keyspace.
					idx = keys - 1 - rank
				}
				o.Kind, o.Name, o.Key, o.ID = cloud.OpGetEntity, hotspotTable, names[idx], "row"
			}, then: func(_ int, o *cloud.Op) bool {
				must("hotspot read", o.Err)
				if sec := int((env.Now() - start) / time.Second); sec < len(perSec) {
					perSec[sec]++
				}
				return false
			}}}}
		})

		rec := partitionRecord("hotspot/"+label, pt.c)
		pt.partition, reads[i], stats[i] = &rec, perSec, pt.c.Stats()
		return pt
	})

	var notes []string
	steady := map[string]float64{}
	for i, label := range labels {
		rec, st := pts[i].partition, stats[i]
		for sec, n := range reads[i] {
			fig.AddPoint(label, float64(sec), float64(n))
		}
		// Steady state: the last quarter of the horizon, after the dynamic
		// master has converged on the post-flip hotspot.
		tail := reads[i][len(reads[i])*3/4:]
		var sum float64
		for _, n := range tail {
			sum += float64(n)
		}
		steady[label] = sum / float64(len(tail))

		var ctr metrics.Counters
		ctr.Add("steady-state reads/s", steady[label])
		ctr.Add("partition servers", float64(rec.Servers))
		ctr.Add("splits", float64(rec.Splits))
		ctr.Add("merges", float64(rec.Merges))
		ctr.Add("migrations", float64(rec.Migrations))
		ctr.Add("stale-map redirects", float64(rec.Redirects))
		ctr.Add("handoff rejects", float64(rec.HandoffRejects))
		ctr.Add("map refreshes", float64(rec.MapRefreshes))
		ctr.Add("busy rejects", float64(st.BusyRejects))
		ctr.Add("retries", float64(st.Retries))
		notes = append(notes, fmt.Sprintf("%s placement:\n%s", label, ctr.Render()))
	}

	notes = append(notes,
		fmt.Sprintf("%d closed-loop readers, %d keys, zipfian θ=%g, horizon %v per mode; hotspot flips to the top of the keyspace at %v",
			workers, keys, zipfTheta(theta), horizon, horizon/2),
		fmt.Sprintf("steady state (last quarter): static %.0f reads/s, dynamic %.0f reads/s (%.2fx)",
			steady["static"], steady["dynamic"], ratio(steady["dynamic"], steady["static"])),
	)
	return finish(s, &Report{
		ID:      "hotspot",
		Title:   "Zipfian hotspot: dynamic partition splitting vs static placement",
		Figures: []metrics.Figure{fig},
		Notes:   notes,
		Wall:    wall(),
	}, pts)
}

// zipfTheta echoes the effective skew (NewZipf substitutes YCSB's 0.99
// for out-of-range values).
func zipfTheta(theta float64) float64 {
	if theta <= 0 || theta >= 1 {
		return 0.99
	}
	return theta
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
