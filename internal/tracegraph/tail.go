package tracegraph

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"azurebench/internal/metrics"
)

// groupKey identifies one (service, op) population.
type groupKey struct {
	service string
	name    string
}

// StageProfile is the stage-duration distribution of one (service, op)
// group: per-stage sorted samples plus op-duration samples.
type StageProfile struct {
	Service string
	Name    string
	Count   int
	// Durations holds every op duration in the group, sorted ascending.
	Durations []time.Duration
	// Stages maps stage → that stage's per-op durations (ops missing the
	// stage contribute 0), sorted ascending.
	Stages map[string][]time.Duration
}

// Percentile returns the p-th percentile op duration of the group.
func (sp *StageProfile) Percentile(p float64) time.Duration {
	return metrics.Percentile(sp.Durations, p)
}

// StagePercentile returns the p-th percentile duration of one stage.
func (sp *StageProfile) StagePercentile(stage string, p float64) time.Duration {
	return metrics.Percentile(sp.Stages[stage], p)
}

// Profiles groups the trace's ops by (service, op) and builds their stage
// profiles, sorted by service then op. Ops without stage spans still
// contribute their durations (with zero stage samples for stages other
// ops carry), so profiles cover the full population.
func (t *Trace) Profiles() []*StageProfile {
	byKey := map[groupKey]*StageProfile{}
	for _, op := range t.Ops {
		k := groupKey{op.Service, op.Name}
		p := byKey[k]
		if p == nil {
			p = &StageProfile{Service: op.Service, Name: op.Name, Stages: map[string][]time.Duration{}}
			byKey[k] = p
		}
		p.Count++
		p.Durations = append(p.Durations, op.Duration)
		for _, sp := range op.Spans {
			if p.Stages[sp.Stage] == nil {
				p.Stages[sp.Stage] = []time.Duration{}
			}
		}
	}
	// Second pass: every op contributes a sample (possibly 0) to every
	// stage its group carries, so stage medians are over the same
	// population as op-duration percentiles.
	for _, op := range t.Ops {
		p := byKey[groupKey{op.Service, op.Name}]
		for st := range p.Stages {
			p.Stages[st] = append(p.Stages[st], op.SpanDur(st))
		}
	}
	var out []*StageProfile
	for _, p := range byKey {
		sort.Slice(p.Durations, func(i, j int) bool { return p.Durations[i] < p.Durations[j] })
		for st := range p.Stages {
			s := p.Stages[st]
			sort.Slice(p.Stages[st], func(i, j int) bool { return s[i] < s[j] })
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TailGroup attributes one (service, op) group's tail latency to stages:
// for every op above the Pct-th percentile, the excess of each stage over
// the group's median stage profile, summed.
type TailGroup struct {
	Service   string
	Name      string
	Count     int           // ops in the group
	TailCount int           // ops at or above the threshold
	Threshold time.Duration // the Pct-th percentile duration
	Median    time.Duration // the median duration
	// Excess maps stage → summed (stage duration − median stage duration),
	// clamped at zero, over the tail ops. The stage with the largest
	// excess is where the tail comes from.
	Excess map[string]time.Duration
	Total  time.Duration // sum of Excess
}

// TailAttribution explains where tail latency comes from, per (service,
// op): ops at or above the pct-th percentile are compared stage-by-stage
// against the group's median stage profile, and each stage's excess is
// summed. Groups with no tail ops above the median are omitted. pct is
// clamped to [50, 100].
func (t *Trace) TailAttribution(pct float64) []*TailGroup {
	if pct < 50 {
		pct = 50
	}
	if pct > 100 {
		pct = 100
	}
	var out []*TailGroup
	for _, p := range t.Profiles() {
		g := &TailGroup{
			Service:   p.Service,
			Name:      p.Name,
			Count:     p.Count,
			Threshold: p.Percentile(pct),
			Median:    p.Percentile(50),
			Excess:    map[string]time.Duration{},
		}
		medians := map[string]time.Duration{}
		for st := range p.Stages {
			medians[st] = p.StagePercentile(st, 50)
		}
		for _, op := range t.Ops {
			if op.Service != p.Service || op.Name != p.Name {
				continue
			}
			if op.Duration < g.Threshold || op.Duration <= g.Median {
				continue
			}
			g.TailCount++
			if len(op.Spans) == 0 {
				// No stage breakdown: attribute the whole excess to an
				// explicit bucket rather than dropping it.
				g.Excess["(unattributed)"] += op.Duration - g.Median
				continue
			}
			for _, sp := range op.Spans {
				if ex := sp.Dur - medians[sp.Stage]; ex > 0 {
					g.Excess[sp.Stage] += ex
				}
			}
		}
		for _, d := range g.Excess {
			g.Total += d
		}
		if g.TailCount > 0 {
			out = append(out, g)
		}
	}
	return out
}

// RenderTail renders the tail-attribution table: one row per (service,
// op) with the threshold, tail population, and per-stage excess shares.
func RenderTail(groups []*TailGroup, pct float64) string {
	if len(groups) == 0 {
		return "(no tail operations above the median)\n"
	}
	present := map[string]bool{}
	for _, g := range groups {
		for st := range g.Excess {
			present[st] = true
		}
	}
	var stages []string
	for st := range present {
		stages = append(stages, st)
	}
	sort.Strings(stages)

	var b strings.Builder
	fmt.Fprintf(&b, "tail attribution (ops >= p%g, excess over median stage profile)\n", pct)
	header := []string{"service", "op", "ops", "tail", fmt.Sprintf("p%g", pct), "p50", "excess"}
	header = append(header, stages...)
	table := [][]string{header}
	for _, g := range groups {
		row := []string{
			g.Service, g.Name,
			fmt.Sprintf("%d", g.Count), fmt.Sprintf("%d", g.TailCount),
			g.Threshold.Round(time.Microsecond).String(),
			g.Median.Round(time.Microsecond).String(),
			g.Total.Round(time.Microsecond).String(),
		}
		for _, st := range stages {
			d := g.Excess[st]
			if d == 0 || g.Total == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.1f%%", 100*float64(d)/float64(g.Total)))
			}
		}
		table = append(table, row)
	}
	metrics.WriteAligned(&b, table)
	return b.String()
}
