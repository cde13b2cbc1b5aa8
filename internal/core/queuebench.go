package core

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/metrics"
	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
)

// Queue benchmark phases (Algorithm 3).
const (
	phQueuePut  = "queue-put"
	phQueuePeek = "queue-peek"
	phQueueGet  = "queue-get" // Get + Delete, as in the paper
)

// effectiveMsgSize clamps a requested message size to the 48 KB usable
// payload, mirroring the paper's observation that 48 KB (49152 bytes) is
// the maximum usable size of a 64 KB message.
func effectiveMsgSize(kb int) int64 {
	size := int64(kb) * storecommon.KB
	if size > storecommon.MaxMessagePayload {
		size = storecommon.MaxMessagePayload
	}
	return size
}

// runQueuePerWorkerPoint returns the Algorithm 3 point at (w, sizeKB),
// simulated once per run (fig6, fig9 and ablation read it). label is not
// part of what is shared: it only names the sampler, and with telemetry on
// nothing is.
func (s *Suite) runQueuePerWorkerPoint(w int, sizeKB int, label string) *point {
	return s.shared("queue", w, sizeKB, func() *point { return s.queuePerWorkerPoint(w, sizeKB, label) })
}

// queuePerWorkerPoint executes Algorithm 3 at one (workers, size)
// point: each worker owns a dedicated queue, inserts its share of the
// 20 000 messages, peeks them, then gets+deletes them. When telemetry is
// enabled a station sampler (labelled for export) records the point's
// queue-server timelines.
func (s *Suite) queuePerWorkerPoint(w int, sizeKB int, label string) *point {
	pt := s.newPoint()
	pt.sample(pt.c.Stations, label)
	cfg := s.cfg
	msgSize := effectiveMsgSize(sizeKB)

	pt.run(w, func(k int, _ *cloud.Client) *role {
		queueName := fmt.Sprintf("azurebench-queue-%d", k)
		_, count := split(cfg.QueueMessages, w, k)
		body := payload.Synthetic(uint64(cfg.Seed)+uint64(k), msgSize)
		return &role{phases: []phase{
			{what: "create queue", n: 1, op: func(_ int, o *cloud.Op) {
				o.Kind, o.Name = cloud.OpCreateQueue, queueName
			}},
			{name: phQueuePut, what: "put message", n: count, op: func(_ int, o *cloud.Op) {
				o.Kind, o.Name, o.Data = cloud.OpPutMessage, queueName, body
			}},
			{name: phQueuePeek, what: "peek message", n: count, op: func(_ int, o *cloud.Op) {
				o.Kind, o.Name = cloud.OpPeekMessage, queueName
			}},
			// Get includes the Delete, as in the paper.
			{name: phQueueGet, n: count, op: func(_ int, o *cloud.Op) {
				o.Kind, o.Name, o.TTL = cloud.OpGetMessage, queueName, time.Hour
			}, then: func(i int, o *cloud.Op) bool {
				if o.Kind == cloud.OpDeleteMessage {
					must("delete message", o.Err)
					return false
				}
				err := o.Err
				if err == nil && !o.OK {
					err = fmt.Errorf("queue %s dry at message %d", queueName, i)
				}
				must("get message", err)
				o.Kind, o.ID, o.PopReceipt = cloud.OpDeleteMessage, o.Msg.ID, o.Msg.PopReceipt
				return true
			}},
			{what: "delete queue", n: 1, op: func(_ int, o *cloud.Op) {
				o.Kind, o.Name = cloud.OpDeleteQueue, queueName
			}},
		}}
	})
	return pt.stats(phQueuePut, phQueuePeek, phQueueGet)
}

// RunFig6 reproduces Figure 6: Put/Peek/Get time versus workers with a
// separate queue per worker, one series per message size.
func (s *Suite) RunFig6() *Report {
	wall := wallStopwatch()
	figs := map[string]*metrics.Figure{
		phQueuePut:  {Title: "Figure 6(a): Put Message — separate queue per worker", XLabel: "workers", YLabel: "seconds (mean per worker, whole phase)"},
		phQueuePeek: {Title: "Figure 6(b): Peek Message — separate queue per worker", XLabel: "workers", YLabel: "seconds (mean per worker, whole phase)"},
		phQueueGet:  {Title: "Figure 6(c): Get Message (incl. delete) — separate queue per worker", XLabel: "workers", YLabel: "seconds (mean per worker, whole phase)"},
	}
	workers, sizes := sortedCopy(s.cfg.Workers), s.cfg.QueueSizesKB
	// One point per (size, workers), a size's worker sweep at a time.
	pts := sweep(s, len(sizes)*len(workers), func(i int) *point {
		w, sizeKB := workers[i%len(workers)], sizes[i/len(workers)]
		return s.runQueuePerWorkerPoint(w, sizeKB, fmt.Sprintf("fig6/w=%d/%dKB", w, sizeKB))
	})
	for i, pt := range pts {
		w, sizeKB := workers[i%len(workers)], sizes[i/len(workers)]
		series := fmt.Sprintf("%dKB", sizeKB)
		if effectiveMsgSize(sizeKB) != int64(sizeKB)*storecommon.KB {
			series = fmt.Sprintf("%dKB(48KB usable)", sizeKB)
		}
		for ph, fig := range figs {
			fig.AddPoint(series, float64(w), pt.st[ph].mean.Seconds())
		}
	}
	notes := []string{
		fmt.Sprintf("%d messages total, split across workers; Get includes the Delete, as in the paper", s.cfg.QueueMessages),
		"the 16 KB Get anomaly the paper reports is reproduced via model.Quirk16KBGet (default on)",
	}
	// The busiest point (most workers, largest messages) is the showcase
	// timeline rendered below the figures.
	if len(pts) > 0 && pts[len(pts)-1].sampler != nil {
		notes = append(notes, "\n"+pts[len(pts)-1].sampler.RenderTop(3))
	}
	return finish(s, &Report{
		ID:    "fig6",
		Title: "Queue storage, separate queue per worker (Algorithm 3)",
		Figures: []metrics.Figure{
			*figs[phQueuePut], *figs[phQueuePeek], *figs[phQueueGet],
		},
		Notes: notes,
		Wall:  wall(),
	}, pts)
}
