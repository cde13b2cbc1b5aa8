package tracegraph

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"azurebench/internal/metrics"
)

// StageDelta compares one (service, op, stage) between two traces.
type StageDelta struct {
	Service string
	Name    string
	Stage   string // "" for the op-duration row
	OldP50  time.Duration
	NewP50  time.Duration
	OldP99  time.Duration
	NewP99  time.Duration
	OldN    int
	NewN    int
}

// P50Pct returns the p50 change in percent (0 when the old side is 0).
func (d StageDelta) P50Pct() float64 { return pctChange(d.OldP50, d.NewP50) }

// P99Pct returns the p99 change in percent (0 when the old side is 0).
func (d StageDelta) P99Pct() float64 { return pctChange(d.OldP99, d.NewP99) }

func pctChange(old, new time.Duration) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (float64(new) - float64(old)) / float64(old)
}

// Diff compares two traces stage-by-stage: for every (service, op) seen
// in either trace it emits an op-duration row (Stage "") and one row per
// stage either side carries, with p50/p99 on both sides. Groups or stages
// present on only one side report zero on the missing side. Rows are
// sorted by service, op, then stage (op-duration row first).
func Diff(old, new *Trace) []StageDelta {
	type side struct {
		profiles map[groupKey]*StageProfile
	}
	index := func(t *Trace) side {
		s := side{profiles: map[groupKey]*StageProfile{}}
		for _, p := range t.Profiles() {
			s.profiles[groupKey{p.Service, p.Name}] = p
		}
		return s
	}
	a, b := index(old), index(new)

	keys := map[groupKey]bool{}
	for k := range a.profiles {
		keys[k] = true
	}
	for k := range b.profiles {
		keys[k] = true
	}
	var order []groupKey
	for k := range keys {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].service != order[j].service {
			return order[i].service < order[j].service
		}
		return order[i].name < order[j].name
	})

	var out []StageDelta
	for _, k := range order {
		pa, pb := a.profiles[k], b.profiles[k]
		d := StageDelta{Service: k.service, Name: k.name}
		stages := map[string]bool{}
		if pa != nil {
			d.OldN = pa.Count
			d.OldP50, d.OldP99 = pa.Percentile(50), pa.Percentile(99)
			for st := range pa.Stages {
				stages[st] = true
			}
		}
		if pb != nil {
			d.NewN = pb.Count
			d.NewP50, d.NewP99 = pb.Percentile(50), pb.Percentile(99)
			for st := range pb.Stages {
				stages[st] = true
			}
		}
		out = append(out, d)
		var stOrder []string
		for st := range stages {
			stOrder = append(stOrder, st)
		}
		sort.Strings(stOrder)
		for _, st := range stOrder {
			sd := StageDelta{Service: k.service, Name: k.name, Stage: st}
			if pa != nil {
				sd.OldN = pa.Count
				sd.OldP50 = pa.StagePercentile(st, 50)
				sd.OldP99 = pa.StagePercentile(st, 99)
			}
			if pb != nil {
				sd.NewN = pb.Count
				sd.NewP50 = pb.StagePercentile(st, 50)
				sd.NewP99 = pb.StagePercentile(st, 99)
			}
			out = append(out, sd)
		}
	}
	return out
}

// RenderDiff renders the stage-by-stage diff as an aligned table. Stage
// rows whose both sides are zero are suppressed to keep the table
// readable; op-duration rows always print.
func RenderDiff(deltas []StageDelta) string {
	var b strings.Builder
	b.WriteString("stage-by-stage diff (old vs new)\n")
	table := [][]string{{"service", "op", "stage", "n(old)", "n(new)", "p50(old)", "p50(new)", "Δp50", "p99(old)", "p99(new)", "Δp99"}}
	for _, d := range deltas {
		if d.Stage != "" && d.OldP50 == 0 && d.NewP50 == 0 && d.OldP99 == 0 && d.NewP99 == 0 {
			continue
		}
		stage := d.Stage
		if stage == "" {
			stage = "(total)"
		}
		table = append(table, []string{
			d.Service, d.Name, stage,
			fmt.Sprintf("%d", d.OldN), fmt.Sprintf("%d", d.NewN),
			d.OldP50.Round(time.Microsecond).String(), d.NewP50.Round(time.Microsecond).String(),
			fmtPct(d.P50Pct()),
			d.OldP99.Round(time.Microsecond).String(), d.NewP99.Round(time.Microsecond).String(),
			fmtPct(d.P99Pct()),
		})
	}
	metrics.WriteAligned(&b, table)
	return b.String()
}

func fmtPct(p float64) string {
	if p == 0 {
		return "-"
	}
	return fmt.Sprintf("%+.1f%%", p)
}
