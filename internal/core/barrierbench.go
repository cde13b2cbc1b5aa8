package core

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/metrics"
	"azurebench/internal/roles"
	"azurebench/internal/sim"
)

// RunBarrier measures the queue-message barrier of Algorithm 2: the time
// from the moment the last worker arrives until every worker has crossed,
// as a function of worker count. The paper excludes this synchronization
// cost from its figures; this experiment makes it visible.
func (s *Suite) RunBarrier() *Report {
	wall := wallStopwatch()
	fig := metrics.Figure{
		Title:  "Algorithm 2: queue-message barrier crossing time",
		XLabel: "workers",
		YLabel: "seconds",
	}
	const rounds = 3
	workers := sortedCopy(s.cfg.Workers)
	waits := make([]metrics.Dist, len(workers))
	pts := sweep(s, len(workers), func(i int) *point {
		w := workers[i]
		pt := s.newPoint()
		pt.setup(func(p *sim.Proc, setup *cloud.Client) {
			_, err := setup.CreateQueueIfNotExists(p, syncQueue)
			must("create sync queue", err)
		})
		// Each worker runs roles.Barrier, the blocking Algorithm 2, on a
		// coroutine: this experiment measures the barrier itself, and its
		// few requests are not hot.
		for k := range w {
			name := fmt.Sprintf("worker%d", k)
			cl := pt.c.NewClient(name, s.cfg.VM)
			pt.env.Go(name, func(p *sim.Proc) {
				b := roles.NewBarrier(syncQueue, w)
				for range rounds {
					// Stagger arrivals a little so the barrier does real work.
					p.Sleep(time.Duration(p.Rand().Intn(500)) * time.Millisecond)
					t0 := p.Now()
					if err := b.Wait(p, cl); err != nil {
						panic(err)
					}
					waits[i].Add(p.Now() - t0)
				}
			})
		}
		pt.env.Run()
		return pt
	})
	for i, w := range workers {
		fig.AddPoint("mean wait", float64(w), waits[i].Mean().Seconds())
		fig.AddPoint("p95 wait", float64(w), waits[i].Percentile(95).Seconds())
	}
	return finish(s, &Report{
		ID:      "barrier",
		Title:   "Queue-message barrier cost (Algorithm 2)",
		Figures: []metrics.Figure{fig},
		Notes: []string{
			"each worker puts one message per phase and polls the approximate count once per second",
			"phase messages are never deleted; each worker accounts for residue via its synccount, exactly as Algorithm 2 prescribes",
		},
		Wall: wall(),
	}, pts)
}
