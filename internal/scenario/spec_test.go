package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// dumpSpec renders a decoded spec deterministically for golden comparison.
func dumpSpec(sp *Spec) string {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format, args...) }
	p("name=%s title=%q driver=%s seed=%d experiment=%q\n",
		sp.Name, sp.Title, sp.Driver, sp.Seed, sp.Experiment)
	dumpPtr := func(label string, v any) {
		switch x := v.(type) {
		case *int:
			if x != nil {
				p("  %s=%d\n", label, *x)
			}
		case *float64:
			if x != nil {
				p("  %s=%g\n", label, *x)
			}
		case *bool:
			if x != nil {
				p("  %s=%v\n", label, *x)
			}
		case *time.Duration:
			if x != nil {
				p("  %s=%s\n", label, *x)
			}
		}
	}
	c := sp.Config
	p("config:\n")
	if len(c.Workers) > 0 {
		p("  workers=%v\n", c.Workers)
	}
	dumpPtr("shared_msg_size_kb", c.SharedMsgSizeKB)
	if len(c.FaultRates) > 0 {
		p("  fault_rates=%v\n", c.FaultRates)
	}
	dumpPtr("fault_workers", c.FaultWorkers)
	dumpPtr("fault_rounds", c.FaultRounds)
	dumpPtr("hotspot_workers", c.HotspotWorkers)
	dumpPtr("hotspot_keys", c.HotspotKeys)
	dumpPtr("hotspot_horizon", c.HotspotHorizon)
	dumpPtr("hotspot_theta", c.HotspotTheta)
	dumpPtr("geo_workers", c.GeoWorkers)
	dumpPtr("geo_readers", c.GeoReaders)
	dumpPtr("geo_horizon", c.GeoHorizon)
	dumpPtr("geo_failover_at", c.GeoFailoverAt)
	dumpPtr("geo_outage", c.GeoOutage)
	if len(c.GeoLagBounds) > 0 {
		p("  geo_lag_bounds=%v\n", c.GeoLagBounds)
	}
	pr := sp.Params
	p("params:\n")
	dumpPtr("table_servers", pr.TableServers)
	dumpPtr("partition_dynamic", pr.PartitionDynamic)
	dumpPtr("max_table_servers", pr.MaxTableServers)
	dumpPtr("partition_split_ops_per_sec", pr.PartitionSplitOpsPerSec)
	dumpPtr("partition_merge_ops_per_sec", pr.PartitionMergeOpsPerSec)
	dumpPtr("partition_control_interval", pr.PartitionControlInterval)
	dumpPtr("partition_migration_blackout", pr.PartitionMigrationBlackout)
	dumpPtr("partition_map_cache_ttl", pr.PartitionMapCacheTTL)
	dumpPtr("geo_regions", pr.GeoRegions)
	dumpPtr("geo_lag_bound", pr.GeoLagBound)
	if f := sp.Faults; f != nil {
		p("faults: rate=%g timeout=%s\n", f.Rate, f.Timeout)
		for _, o := range f.Outages {
			p("  outage service=%q station=%q start=%s duration=%s\n",
				o.Service, o.Station, o.Start, o.Duration)
		}
	}
	for _, t := range sp.Setup.Tables {
		p("setup.table name=%s keys=%d entity_kb=%d\n", t.Name, t.Keys, t.EntityKB)
	}
	for _, q := range sp.Setup.Queues {
		p("setup.queue name=%s preload=%d message_kb=%d\n", q.Name, q.Preload, q.MessageKB)
	}
	for _, cs := range sp.Setup.Containers {
		p("setup.container name=%s blobs=%d blob_kb=%d\n", cs.Name, cs.Blobs, cs.BlobKB)
	}
	for _, ph := range sp.Phases {
		p("phase name=%s duration=%s clients=%d payload_kb=%d\n",
			ph.Name, ph.Duration, ph.Clients, ph.PayloadKB)
		p("  arrival kind=%s think=%s rate=%g\n", ph.Arrival.Kind, ph.Arrival.Think, ph.Arrival.Rate)
		if d := ph.Arrival.Diurnal; d != nil {
			p("  diurnal period=%s amplitude=%g\n", d.Period, d.Amplitude)
		}
		if bu := ph.Arrival.Burst; bu != nil {
			p("  burst size=%d every=%s\n", bu.Size, bu.Every)
		}
		for _, ow := range ph.Ops {
			p("  op %s=%d\n", ow.Op, ow.Weight)
		}
		p("  keys dist=%q theta=%g flip_at=%s\n", ph.Keys.Dist, ph.Keys.Theta, ph.Keys.FlipAt)
		p("  target table=%q queue=%q container=%q\n",
			ph.Target.Table, ph.Target.Queue, ph.Target.Container)
	}
	for _, a := range sp.SLOs {
		p("slo %s\n", a)
	}
	return b.String()
}

func TestGoldenSpecs(t *testing.T) {
	files, err := filepath.Glob("testdata/*.yaml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata specs (err=%v)", err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			golden := strings.TrimSuffix(file, ".yaml") + ".golden"
			sp, err := Load(file)
			var got string
			if err != nil {
				// Error goldens: strip the file-path prefix for stability.
				got = "ERROR\n" + strings.TrimPrefix(err.Error(), file+": ") + "\n"
			} else {
				got = dumpSpec(sp)
			}
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run go test -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s\n--- got ---\n%s--- want ---\n%s", file, got, want)
			}
		})
	}
}

// TestGoldenLiveRejections pins the error a valid spec earns when it asks
// a live run for something only the simulator has: each sim-only stanza
// is rejected with its key named, never silently ignored.
func TestGoldenLiveRejections(t *testing.T) {
	files, err := filepath.Glob("testdata/live/*.yaml")
	if err != nil || len(files) < 4 {
		t.Fatalf("live-rejection specs missing (err=%v): %v", err, files)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			golden := strings.TrimSuffix(file, ".yaml") + ".golden"
			sp, err := Load(file)
			if err != nil {
				t.Fatalf("the spec must be valid in simulation: %v", err)
			}
			// A nil substrate: the rejection must come before anything runs.
			_, err = RunOn(nil, nil, sp, 1, Options{})
			if err == nil {
				t.Fatal("RunOn accepted a simulation-only spec")
			}
			got := "ERROR\n" + err.Error() + "\n"
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run go test -update): %v", err)
			}
			if got != string(want) {
				t.Errorf("golden mismatch for %s\n--- got ---\n%s--- want ---\n%s", file, got, want)
			}
		})
	}
}

func TestValidationErrors(t *testing.T) {
	base := func(mutate string) string {
		return `
name: v
driver: workload
setup:
  queues:
    - name: workq
phases:
  - name: only
    duration: 2s
    clients: 1
    arrival:
      kind: closed
    ops:
      queue_put: 1
    target:
      queue: workq
` + mutate
	}
	cases := []struct {
		name, src, want string
	}{
		{"missingName", strings.Replace(base(""), "name: v", "title: v", 1), "scenario.name is required"},
		{"badDriver", strings.Replace(base(""), "driver: workload", "driver: chaos", 1),
			`scenario.driver must be "experiment" or "workload"`},
		{"expNeedsID", "name: x\ndriver: experiment\n", "requires scenario.experiment"},
		{"expNoPhases", "name: x\ndriver: experiment\nexperiment: faults\nphases:\n  - name: p\n",
			"takes no phases/faults/setup"},
		{"badOp", strings.Replace(base(""), "kind: closed", "kind: teleport", 1),
			"arrival.kind must be closed, poisson or burst"},
		{"undeclaredTarget", strings.Replace(base(""), "queue: workq", "queue: ghost", 1),
			`target.queue "ghost" is not declared`},
		{"poissonNoRate", strings.Replace(base(""), "kind: closed", "kind: poisson", 1),
			"poisson arrival requires rate > 0"},
		{"burstNoBlock", strings.Replace(base(""), "kind: closed", "kind: burst", 1),
			"burst arrival requires a burst block"},
		{"badTheta", base("    keys:\n      dist: zipfian\n      theta: 1.5\n"),
			"keys.theta 1.5 outside (0, 1)"},
		{"badSLOOp", base("slo:\n  - metric: m\n    op: \"~=\"\n    value: 1\n"),
			"slo[0].op must be one of"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestDecodeAccumulatesErrors(t *testing.T) {
	_, err := Parse([]byte(`
name: multi
driver: workload
seed: notanumber
bogus_top: 1
phases:
  - name: p
    duration: fast
    clients: 1
    arrival:
      kind: closed
      surprise: 1
    ops:
      queue_put: 1
    target:
      queue: q
`))
	if err == nil {
		t.Fatal("no error")
	}
	msg := err.Error()
	for _, want := range []string{
		`scenario.seed: bad integer "notanumber"`,
		`unknown field "bogus_top"`,
		`bad duration "fast"`,
		`unknown field "surprise"`,
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error does not mention %q:\n%s", want, msg)
		}
	}
}
