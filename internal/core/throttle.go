package core

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/metrics"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
)

// RunThrottle demonstrates the scalability-target behaviour the paper
// describes in §IV: concurrent workers hammering a single queue cannot
// exceed ~500 transactions/s; excess requests fail with ServerBusy and the
// workers recover by sleeping one second and retrying (the paper's own
// recovery, triggered when they inserted 1000 entities instead of 500).
func (s *Suite) RunThrottle() *Report {
	wall := wallStopwatch()
	tput := metrics.Figure{
		Title:  "Throttling: achieved throughput on one queue vs workers",
		XLabel: "workers",
		YLabel: "ops/s (aggregate)",
	}
	busyFig := metrics.Figure{
		Title:  "Throttling: ServerBusy retries vs workers",
		XLabel: "workers",
		YLabel: "count",
	}
	totalOps := s.cfg.QueueMessages / 4
	if totalOps < 100 {
		totalOps = 100
	}
	workers := sortedCopy(s.cfg.Workers)
	elapsed, busy := make([]time.Duration, len(workers)), make([]int, len(workers))
	pts := sweep(s, len(workers), func(i int) *point {
		w := workers[i]
		pt := s.newPoint()
		pt.setup(func(p *sim.Proc, setup *cloud.Client) {
			_, err := setup.CreateQueueIfNotExists(p, "hot-queue")
			must("create queue", err)
		})
		pt.sample(pt.c.Stations, fmt.Sprintf("throttle/w=%d", w))

		pt.run(w, func(k int, _ *cloud.Client) *role {
			_, n := split(totalOps, w, k)
			body := payload.Synthetic(uint64(k), 1024)
			return &role{phases: []phase{{name: "put", what: "put", n: n, op: func(_ int, o *cloud.Op) {
				o.Kind, o.Name, o.Data = cloud.OpPutMessage, "hot-queue", body
			}}}}
		})
		// Elapsed ends at the last worker's finish, not env.Now(): the
		// telemetry sampler's final tick may land after the workers, and
		// throughput must not depend on whether sampling is attached.
		elapsed[i] = pt.stats("put").st["put"].makespan
		busy[i] = int(pt.c.Stats().Retries)
		return pt
	})
	for i, w := range workers {
		if elapsed[i] > 0 {
			tput.AddPoint("achieved", float64(w), float64(totalOps)/elapsed[i].Seconds())
		}
		tput.AddPoint("target(500/s)", float64(w), 500)
		busyFig.AddPoint("retries", float64(w), float64(busy[i]))
	}
	notes := []string{
		fmt.Sprintf("%d puts total split across workers; every ServerBusy is followed by a 1 s sleep and a retry (paper §IV)", totalOps),
		"aggregate throughput plateaus at the documented 500 msg/s per-queue target while retries grow with offered load",
	}
	// The busiest point's queue-server timeline renders below the figures.
	if len(pts) > 0 && pts[len(pts)-1].sampler != nil {
		notes = append(notes, "\n"+pts[len(pts)-1].sampler.RenderTop(2))
	}
	return finish(s, &Report{
		ID:      "throttle",
		Title:   "Scalability-target throttling on a single queue",
		Figures: []metrics.Figure{tput, busyFig},
		Notes:   notes,
		Wall:    wall(),
	}, pts)
}
