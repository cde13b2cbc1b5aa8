package scenario

import (
	"fmt"
	"sort"
	"strings"
)

// Assertion is one SLO: a comparison against a metric the run produces.
// Metric names come from the flattened metric map — phase metrics like
// "steady.p95_ms" for the workload driver, figure aggregates like
// "fig1.goodput.min" for both drivers (see Result.Metrics).
type Assertion struct {
	Metric string  `yaml:"metric"`
	Op     string  `yaml:"op"` // <=, >=, <, >, ==, !=
	Value  float64 `yaml:"value"`
}

// String renders the assertion as written.
func (a Assertion) String() string {
	return fmt.Sprintf("%s %s %v", a.Metric, a.Op, a.Value)
}

// holds evaluates the comparison.
func (a Assertion) holds(actual float64) bool {
	switch a.Op {
	case "<=":
		return actual <= a.Value
	case ">=":
		return actual >= a.Value
	case "<":
		return actual < a.Value
	case ">":
		return actual > a.Value
	case "==":
		return actual == a.Value
	case "!=":
		return actual != a.Value
	}
	return false
}

// SLOResult is one evaluated assertion.
type SLOResult struct {
	Assertion Assertion
	Actual    float64
	Missing   bool // the metric was not produced by the run
	Pass      bool
}

// EvaluateSLOs checks every assertion against the metric map. A missing
// metric fails its assertion (a typo must not silently pass CI).
func EvaluateSLOs(asserts []Assertion, metrics map[string]float64) []SLOResult {
	out := make([]SLOResult, 0, len(asserts))
	for _, a := range asserts {
		actual, ok := metrics[a.Metric]
		res := SLOResult{Assertion: a, Actual: actual, Missing: !ok}
		if ok {
			res.Pass = a.holds(actual)
		}
		out = append(out, res)
	}
	return out
}

// RenderSLOs formats evaluated assertions, one per line. When an
// assertion references a metric the run never produced, the nearest
// metric names are listed to make the typo findable.
func RenderSLOs(results []SLOResult, metrics map[string]float64) string {
	var b strings.Builder
	for _, r := range results {
		switch {
		case r.Missing:
			fmt.Fprintf(&b, "SLO FAIL %s (metric not produced; similar: %s)\n",
				r.Assertion, strings.Join(nearestMetrics(r.Assertion.Metric, metrics, 3), ", "))
		case r.Pass:
			fmt.Fprintf(&b, "SLO PASS %s (actual %s)\n", r.Assertion, trimFloat(r.Actual))
		default:
			fmt.Fprintf(&b, "SLO FAIL %s (actual %s)\n", r.Assertion, trimFloat(r.Actual))
		}
	}
	return b.String()
}

// nearestMetrics returns up to n produced metric names sharing the
// longest prefix with want, ties broken lexically — deterministic.
func nearestMetrics(want string, metrics map[string]float64, n int) []string {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		pi, pj := commonPrefix(names[i], want), commonPrefix(names[j], want)
		if pi != pj {
			return pi > pj
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	return names
}

func commonPrefix(a, b string) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}

// trimFloat renders a float without trailing zero noise.
func trimFloat(x float64) string {
	s := fmt.Sprintf("%.4f", x)
	s = strings.TrimRight(s, "0")
	return strings.TrimRight(s, ".")
}
