package scenario

import (
	"strings"
	"testing"
)

// TestNearestMetricsOrder pins the "similar:" hint of an SLO on a metric
// the run never produced: longest shared prefix first, ties by name.
func TestNearestMetricsOrder(t *testing.T) {
	metrics := map[string]float64{}
	for _, name := range []string{
		"measure.ops", "measure.errors", "warm.ops", "warm.table_get.p99_ms",
		"measure.table_get.ops", "measure.table_get.p50_ms", "measure.table_get.p99_ms",
		"measure.table_update.ops", "measure.table_update.p50_ms", "measure.table_update.p99_ms",
		"measure.table_insert.p99_ms", "measure.queue_put.p50_ms", "measure.queue_put.p99_ms",
	} {
		metrics[name] = 1
	}
	const want = "measure.table_got.p99_ms"
	for n, list := range map[int]string{
		3: "measure.table_get.ops measure.table_get.p50_ms measure.table_get.p99_ms",
		6: "measure.table_get.ops measure.table_get.p50_ms measure.table_get.p99_ms " +
			"measure.table_insert.p99_ms measure.table_update.ops measure.table_update.p50_ms",
		len(metrics): "measure.table_get.ops measure.table_get.p50_ms measure.table_get.p99_ms " +
			"measure.table_insert.p99_ms measure.table_update.ops measure.table_update.p50_ms " +
			"measure.table_update.p99_ms measure.errors measure.ops measure.queue_put.p50_ms " +
			"measure.queue_put.p99_ms warm.ops warm.table_get.p99_ms",
	} {
		if got := strings.Join(nearestMetrics(want, metrics, n), " "); got != list {
			t.Errorf("nearestMetrics(%q, n=%d) = %s\nwant %s", want, n, got, list)
		}
	}
}
