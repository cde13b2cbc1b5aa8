package core

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/fabric"
	"azurebench/internal/metrics"
	"azurebench/internal/payload"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
)

// RunCache benchmarks the caching service the paper defers to future work
// (§II, §V): w workers repeatedly read one hot 64 KB object either
// directly from Blob storage (bounded by the blob partition's service
// rate × read replicas) or cache-aside through the distributed cache
// (bounded only by the cache node's RAM-speed service). The figure shows
// the aggregate read rate of both paths.
func (s *Suite) RunCache() *Report {
	wall := wallStopwatch()
	fig := metrics.Figure{
		Title:  "Caching service: hot-object read throughput, Blob direct vs cache-aside",
		XLabel: "workers",
		YLabel: "reads/s (aggregate)",
	}
	latFig := metrics.Figure{
		Title:  "Caching service: mean read latency",
		XLabel: "workers",
		YLabel: "ms",
	}
	const (
		objSize   = 64 * storecommon.KB
		readsEach = 50
		hotKey    = "hot-config"
	)
	workers := sortedCopy(s.cfg.Workers)
	// Two points per worker count: Blob direct, then cache-aside.
	elapsed := make([]time.Duration, 2*len(workers))
	pts := sweep(s, 2*len(workers), func(i int) *point {
		w, cached := workers[i/2], i%2 == 1
		pt := s.newPoint()
		pt.setup(func(p *sim.Proc, setup *cloud.Client) {
			_, err := setup.CreateContainerIfNotExists(p, benchContainer)
			must("create container", err)
			must("upload hot blob", setup.UploadBlockBlob(p, benchContainer, hotKey, payload.Synthetic(1, objSize)))
		})
		start := pt.env.Now()
		pt.run(w, func(_ int, cl *cloud.Client) *role {
			cl.SetRetryPolicy(retry.Policy{}) // one attempt: a throttled read is timed, not retried
			if !cached {
				return &role{phases: []phase{{name: "read", n: readsEach, op: func(_ int, o *cloud.Op) {
					o.Kind, o.Name, o.Key, o.Data = cloud.OpDownload, benchContainer, hotKey, payload.Payload{}
				}, then: func(_ int, o *cloud.Op) bool {
					checkBusyOnly("blob read", o.Err)
					return false
				}}}}
			}
			return &role{phases: []phase{{name: "read", n: readsEach, op: func(_ int, o *cloud.Op) {
				o.Kind, o.Name, o.Key, o.Data = cloud.OpCacheGet, "default", hotKey, payload.Payload{}
			}, then: func(_ int, o *cloud.Op) bool {
				switch o.Kind {
				case cloud.OpCacheGet:
					checkBusyOnly("cache get", o.Err)
					if o.OK {
						if o.Item.Value.Len() != objSize {
							panic("cache returned wrong object")
						}
						return false
					}
					// Cache-aside fill on miss.
					o.Kind, o.Name = cloud.OpDownload, benchContainer
				case cloud.OpDownload:
					checkBusyOnly("fill read", o.Err)
					o.Kind, o.Name, o.TTL = cloud.OpCachePut, "default", time.Hour // o.Data is what the read got
				default:
					checkBusyOnly("cache fill", o.Err)
					return false
				}
				return true
			}}}}
		})
		elapsed[i] = pt.env.Now() - start
		return pt.stats("read")
	})
	for i := range pts {
		w, series := workers[i/2], "Blob direct"
		if i%2 == 1 {
			series = "cache-aside"
		}
		fig.AddPoint(series, float64(w), float64(w*readsEach)/elapsed[i].Seconds())
		latFig.AddPoint(series, float64(w), float64(pts[i].st["read"].opMean())/float64(time.Millisecond))
	}
	return finish(s, &Report{
		ID:      "cache",
		Title:   "Caching service vs Blob storage for hot objects (paper §II/§V future work)",
		Figures: []metrics.Figure{fig, latFig},
		Notes: []string{
			fmt.Sprintf("one hot %d KB object, %d reads per worker; cache-aside pattern with per-cloud 4-node cache cluster", objSize/storecommon.KB, readsEach),
			"the blob path saturates at the partition's service rate across read replicas; the cache path runs at RAM speed",
		},
		Wall: wall(),
	}, pts)
}

// RunProvision measures deployment readiness times (paper §V future work:
// "resource provisioning times and application deployment timings"): how
// long until the first and the last of w instances is ready, as the
// fabric controller serialises placement and VMs boot with jitter.
func (s *Suite) RunProvision() *Report {
	wall := wallStopwatch()
	fig := metrics.Figure{
		Title:  "Deployment provisioning time vs instance count",
		XLabel: "instances",
		YLabel: "seconds",
	}
	prm := s.cfg.Params
	workers := sortedCopy(s.cfg.Workers)
	first, last := make([]time.Duration, len(workers)), make([]time.Duration, len(workers))
	pts := sweep(s, len(workers), func(i int) *point {
		w := workers[i]
		pt := s.newPoint()
		d := fabric.DeployWithOptions(pt.c, "prov", fabric.DeployOpts{
			BootBase:       prm.VMBootBase,
			BootJitter:     prm.VMBootJitter,
			PlacementDelay: prm.PlacementDelay,
		}, fabric.RoleConfig{
			Name: "w", VM: s.cfg.VM, Count: w,
			Run: func(ctx *fabric.Context) {},
		})
		pt.env.Run()
		for j, inst := range d.Instances() {
			r := inst.ReadyAt()
			if j == 0 || r < first[i] {
				first[i] = r
			}
			last[i] = max(last[i], r)
		}
		return pt
	})
	for i, w := range workers {
		fig.AddPoint("first ready", float64(w), first[i].Seconds())
		fig.AddPoint("all ready", float64(w), last[i].Seconds())
	}
	return finish(s, &Report{
		ID:      "provision",
		Title:   "Resource provisioning / deployment timings (paper §V future work)",
		Figures: []metrics.Figure{fig},
		Notes: []string{
			fmt.Sprintf("boot = %v + U(0, %v) per instance; fabric controller places instances every %v",
				prm.VMBootBase, prm.VMBootJitter, prm.PlacementDelay),
			"time-to-all-ready grows with the placement serialisation plus the maximum of the boot jitters",
		},
		Wall: wall(),
	}, pts)
}
