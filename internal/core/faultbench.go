package core

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/faults"
	"azurebench/internal/metrics"
	"azurebench/internal/payload"
	"azurebench/internal/retry"
	"azurebench/internal/storecommon"
)

// faultVisibility is the GetMessage claim duration in the fault
// experiment: short enough that a dropped DeleteMessage's redelivery
// happens within the run.
const faultVisibility = 5 * time.Second

// faultRetryPolicy is the resilient discipline the fault experiment's
// workers run under: exponential backoff with jitter, bounded attempts
// and a per-op deadline, retrying throttles and transient faults alike.
func faultRetryPolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts: 6,
		BaseDelay:   200 * time.Millisecond,
		Multiplier:  2,
		MaxDelay:    5 * time.Second,
		Jitter:      0.2,
		Deadline:    30 * time.Second,
	}
}

// RunFaults re-runs the paper's queue workload shape (Algorithm 3's
// put/get/delete rounds, one queue per worker) under a seeded fault plan
// and reports goodput, retries, failed operations and at-least-once
// redeliveries as the fault rate grows. The zero-rate point doubles as a
// drift check: an attached injector with an empty plan must reproduce the
// fault-free run exactly.
func (s *Suite) RunFaults() *Report {
	wall := wallStopwatch()
	goodput := metrics.Figure{
		Title:  "Goodput under injected faults (timeouts + 500s + resets + a 5 s outage)",
		XLabel: "fault rate (%)",
		YLabel: "completed rounds/s",
	}
	cost := metrics.Figure{
		Title:  "Resilience cost vs fault rate",
		XLabel: "fault rate (%)",
		YLabel: "count",
	}
	var notes []string

	w := s.cfg.FaultWorkers
	if w < 1 {
		w = 8
	}
	totalRounds := s.cfg.FaultRounds
	if totalRounds < w {
		totalRounds = w
	}
	rates := s.cfg.FaultRates
	if len(rates) == 0 {
		rates = DefaultConfig().FaultRates
	}
	// tally is one fault rate's outcome.
	type tally struct {
		completed, failed, redelivered, staleClaims, misses int

		elapsed  time.Duration
		cloud    cloud.Stats
		injected faults.Stats
	}
	tallies := make([]tally, len(rates))
	pts := sweep(s, len(rates), func(i int) *point {
		rate, t := rates[i], &tallies[i]
		pt := s.newPoint()
		plan := faults.Uniform(s.cfg.Seed, rate)
		plan.Timeout = faultVisibility // keep lost-request stalls commensurate with the run
		if rate > 0 {
			// On top of the probability-driven mix, take the whole queue
			// service down for five seconds mid-run: the failover window
			// every worker must ride out on backoff.
			plan.Outages = []faults.Window{{Service: "queue", Start: 20 * time.Second, Duration: 5 * time.Second}}
		}
		pt.c.SetFaults(faults.NewInjector(plan))

		pt.run(w, func(k int, cl *cloud.Client) *role {
			cl.SetRetryPolicy(faultRetryPolicy())
			qname := fmt.Sprintf("faults-q%d", k)
			body := payload.Synthetic(uint64(k), int64(s.cfg.SharedMsgSizeKB)*storecommon.KB)
			_, n := split(totalRounds, w, k)
			return &role{phases: []phase{
				{what: "create queue", n: 1, op: func(_ int, o *cloud.Op) {
					o.Kind, o.Name = cloud.OpCreateQueueIfNotExists, qname
				}},
				// A round is a put, a get and a delete; a failed step ends it.
				{n: n, op: func(_ int, o *cloud.Op) {
					o.Kind, o.Name, o.Data = cloud.OpPutMessage, qname, body
				}, then: func(_ int, o *cloud.Op) bool {
					err := o.Err
					switch {
					case o.Kind == cloud.OpPutMessage && err == nil:
						o.Kind, o.TTL, o.Data = cloud.OpGetMessage, faultVisibility, payload.Payload{}
						return true
					case o.Kind == cloud.OpGetMessage && err == nil:
						if !o.OK {
							t.misses++
							return false
						}
						if o.Msg.DequeueCount > 1 {
							t.redelivered++
						}
						o.Kind, o.ID, o.PopReceipt = cloud.OpDeleteMessage, o.Msg.ID, o.Msg.PopReceipt
						return true
					case o.Kind == cloud.OpDeleteMessage && (storecommon.IsNotFound(err) || storecommon.IsPreconditionFailed(err)):
						// The claim expired during backoff and the message was
						// redelivered — at-least-once in action, not a failure.
						t.staleClaims++
					case err != nil:
						t.failed++
						return false
					}
					t.completed++
					return false
				}},
			}}
		})
		t.elapsed, t.cloud, t.injected = pt.env.Now(), pt.c.Stats(), pt.c.Faults().Stats()
		return pt
	})
	for i, t := range tallies {
		st, fs := t.cloud, t.injected
		x := rates[i] * 100
		if t.elapsed > 0 {
			goodput.AddPoint("goodput", x, float64(t.completed)/t.elapsed.Seconds())
		}
		cost.AddPoint("retries", x, float64(st.Retries))
		cost.AddPoint("failed-ops", x, float64(t.failed))
		cost.AddPoint("redelivered", x, float64(t.redelivered))

		var ctr metrics.Counters
		ctr.Add("faults injected", float64(fs.Injected()))
		ctr.Add("  timeouts", float64(fs.Timeouts))
		ctr.Add("  internal errors", float64(fs.Internals))
		ctr.Add("  connection resets", float64(fs.Resets))
		ctr.Add("  outage rejects", float64(fs.Outages))
		ctr.Add("retries", float64(st.Retries))
		ctr.Add("busy rejects", float64(st.BusyRejects))
		ctr.Add("rounds completed", float64(t.completed))
		ctr.Add("ops failed (retries exhausted)", float64(t.failed))
		ctr.Add("redelivered (dequeue count > 1)", float64(t.redelivered))
		ctr.Add("stale delete claims", float64(t.staleClaims))
		ctr.Add("get misses", float64(t.misses))
		notes = append(notes, fmt.Sprintf("fault rate %g%% (virtual runtime %v):\n%s",
			x, t.elapsed.Round(time.Millisecond), ctr.Render()))
	}
	return finish(s, &Report{
		ID:      "faults",
		Title:   "Goodput vs fault rate under the resilient retry policy",
		Figures: []metrics.Figure{goodput, cost},
		Notes: append(notes,
			fmt.Sprintf("%d put/get/delete rounds over %d workers (one queue each), %d KB messages; exponential backoff with jitter, %d attempts max", totalRounds, w, s.cfg.SharedMsgSizeKB, faultRetryPolicy().MaxAttempts),
			"faults are seeded and schedule-driven: the same -seed reproduces the identical fault schedule and counters",
		),
		Wall: wall(),
	}, pts)
}
