package scenario

import (
	"sort"

	"azurebench/internal/metrics"
	"azurebench/internal/trace"
	"azurebench/internal/tracegraph"
)

// traceMetrics flattens a run's operation trace into SLO-addressable
// metrics: global counts plus per-stage latency percentiles over the
// per-op stage durations (ops carrying the stage form the population).
//
//	trace.ops                      traced operations retained
//	trace.errors                   traced operations with an error code
//	trace.orphans                  spans whose parent was evicted
//	trace.stage.<stage>.p50_ms     per-stage percentile (likewise p95/p99)
//	trace.stage.<stage>.total_ms   summed stage time
func traceMetrics(l *trace.Log) map[string]float64 {
	tr := tracegraph.Trace{Ops: l.Ops()}
	m := map[string]float64{}
	m["trace.ops"] = float64(len(tr.Ops))
	var errs int
	for _, op := range tr.Ops {
		if op.Err != "" {
			errs++
		}
	}
	m["trace.errors"] = float64(errs)
	m["trace.orphans"] = float64(tr.Forest().Orphans)

	// Pool stage samples across (service, op) groups: SLO stage gates are
	// about pipeline behaviour, not a single op name. Profiles pads every
	// group member with zero samples for stages it lacks; only non-zero
	// samples enter the pool so a stage's percentile reflects the ops that
	// actually passed through it.
	pool := map[string][]float64{}
	totals := map[string]float64{}
	for _, op := range tr.Ops {
		for _, sp := range op.Spans {
			if sp.Dur <= 0 {
				continue
			}
			pool[sp.Stage] = append(pool[sp.Stage], ms(sp.Dur))
			totals[sp.Stage] += ms(sp.Dur)
		}
	}
	for st, samples := range pool {
		sort.Float64s(samples)
		m["trace.stage."+st+".p50_ms"] = metrics.Percentile(samples, 50)
		m["trace.stage."+st+".p95_ms"] = metrics.Percentile(samples, 95)
		m["trace.stage."+st+".p99_ms"] = metrics.Percentile(samples, 99)
		m["trace.stage."+st+".total_ms"] = totals[st]
	}
	return m
}
