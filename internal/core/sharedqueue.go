package core

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/metrics"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
)

const sharedQueueName = "azurebench-queue"

// runSharedQueuePoint executes Algorithm 4 at one (workers, thinkTime)
// point: all workers share one queue; each performs its share of the
// configured rounds of Put → think → Peek → think → Get(+Delete) → think.
// Reported times include only the storage operations, not the think time,
// as in the paper.
func (s *Suite) runSharedQueuePoint(w int, think time.Duration) *point {
	pt := s.newPoint()
	cfg := s.cfg
	msgSize := effectiveMsgSize(cfg.SharedMsgSizeKB)

	pt.setup(func(p *sim.Proc, setup *cloud.Client) {
		_, err := setup.CreateQueueIfNotExists(p, sharedQueueName)
		must("create shared queue", err)
	})

	env := pt.env
	pt.run(w, func(k int, cl *cloud.Client) *role {
		_, rounds := split(cfg.SharedRounds, w, k)
		body := payload.Synthetic(uint64(cfg.Seed)+uint64(k), msgSize)
		thinkTime := func() time.Duration { return cl.ThinkTime(think) }
		var round []phase // none for a worker with no rounds to make
		if rounds > 0 {
			round = []phase{
				{name: phQueuePut, what: "put", n: 1, wait: thinkTime, op: func(_ int, o *cloud.Op) {
					o.Kind, o.Name, o.Data = cloud.OpPutMessage, sharedQueueName, body
				}},
				{name: phQueuePeek, what: "peek", n: 1, wait: thinkTime, op: func(_ int, o *cloud.Op) {
					o.Kind, o.Name = cloud.OpPeekMessage, sharedQueueName
				}},
				{name: phQueueGet, n: 1, wait: thinkTime, op: func(_ int, o *cloud.Op) {
					o.Kind, o.Name, o.TTL = cloud.OpGetMessage, sharedQueueName, time.Hour
				}, then: func(_ int, o *cloud.Op) bool {
					if o.Kind == cloud.OpDeleteMessage {
						must("delete", o.Err)
						return false
					}
					must("get", o.Err)
					// Under non-FIFO interleaving another worker may
					// momentarily hold the only visible message; treat as a
					// zero-cost miss and move on.
					if !o.OK {
						return false
					}
					o.Kind, o.ID, o.PopReceipt = cloud.OpDeleteMessage, o.Msg.ID, o.Msg.PopReceipt
					return true
				}},
			}
		}
		// Workers never start in lockstep on real VMs: stagger the first
		// round uniformly over one think interval, otherwise the
		// synchronized first wave dominates the per-op mean and hides the
		// think-time effect the paper reports.
		stagger := func() time.Duration { return time.Duration(env.Rand().Int63n(int64(think) + 1)) }
		return &role{start: stagger, rounds: rounds, phases: round}
	})
	return pt.stats(phQueuePut, phQueuePeek, phQueueGet)
}

// RunFig7 reproduces Figure 7: Put/Peek/Get cost versus workers on a
// single shared queue, one series per think time (1–5 s).
func (s *Suite) RunFig7() *Report {
	wall := wallStopwatch()
	figs := map[string]*metrics.Figure{
		phQueuePut:  {Title: "Figure 7(a): Put Message — single shared queue", XLabel: "workers", YLabel: "ms (mean per operation)"},
		phQueuePeek: {Title: "Figure 7(b): Peek Message — single shared queue", XLabel: "workers", YLabel: "ms (mean per operation)"},
		phQueueGet:  {Title: "Figure 7(c): Get Message (incl. delete) — single shared queue", XLabel: "workers", YLabel: "ms (mean per operation)"},
	}
	workers, thinks := sortedCopy(s.cfg.Workers), s.cfg.ThinkTimes
	// One point per (think time, workers), a think time's worker sweep at a time.
	pts := sweep(s, len(thinks)*len(workers), func(i int) *point {
		return s.runSharedQueuePoint(workers[i%len(workers)], thinks[i/len(workers)])
	})
	for i, pt := range pts {
		series := fmt.Sprintf("think=%v", thinks[i/len(workers)])
		for ph, fig := range figs {
			stats := pt.st[ph]
			mean := stats.opMean()
			fig.AddPoint(series, float64(workers[i%len(workers)]), float64(mean)/float64(time.Millisecond))
		}
	}
	return finish(s, &Report{
		ID:    "fig7",
		Title: "Queue storage, single shared queue (Algorithm 4)",
		Figures: []metrics.Figure{
			*figs[phQueuePut], *figs[phQueuePeek], *figs[phQueueGet],
		},
		Notes: []string{
			fmt.Sprintf("message size %d KB; %d total rounds split across workers; think time excluded from reported times",
				s.cfg.SharedMsgSizeKB, s.cfg.SharedRounds),
			"think-time sleeps carry the model's multiplicative jitter, so synchronized workers decohere as on real VMs",
		},
		Wall: wall(),
	}, pts)
}
