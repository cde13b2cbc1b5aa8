package scenario

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"azurebench/internal/core"
	"azurebench/internal/model"
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
	dumpPtr("geo_outage", c.GeoOutageDuration)
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
	dumpPtr("geo_lag_bound", pr.GeoReplicationLagBound)
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

// runnableSpec drives all three services from one closed-loop phase; the
// refusal cases below each break it in one place.
const runnableSpec = `
name: v
driver: workload
setup:
  tables:
    - name: usertable
      keys: 10
  queues:
    - name: workq
  containers:
    - name: media
phases:
  - name: only
    duration: 2s
    clients: 2
    arrival:
      kind: closed
    ops:
      table_get: 1
      queue_put: 1
      blob_put: 1
    target:
      table: usertable
      queue: workq
      container: media
`

// TestParseRefusesWhatCannotRun: every spec here decoded and validated
// before Parse learned the storage services' limits and the engine's
// preconditions, and then could not run as written — the engine panicked
// (negative object sizes, an op mix whose weights overflow, negative
// worker counts, a fault rate over 1), the service refused setup (names,
// object sizes), every op of a kind failed (a payload over one write), the
// experiment was not registered, or part of the spec was silently ignored
// (config: on a workload, a preemption of a worker no phase has, an
// outage of a service that is not one, a skew on a uniform draw, think
// time on an open arrival, two phases writing the same metrics).
func TestParseRefusesWhatCannotRun(t *testing.T) {
	edit := func(pairs ...string) string {
		return strings.NewReplacer(pairs...).Replace(runnableSpec)
	}
	twoPhases := runnableSpec + runnableSpec[strings.Index(runnableSpec, "  - name: only"):]
	cases := []struct{ name, src, want string }{
		{"negativeEntity", edit("keys: 10", "keys: 10\n      entity_kb: -1"),
			"scenario.setup.tables[0].entity_kb must be >= 0"},
		{"negativeMessage", edit("- name: workq", "- name: workq\n      preload: 2\n      message_kb: -1"),
			"scenario.setup.queues[0].message_kb must be >= 0"},
		{"negativeBlob", edit("- name: media", "- name: media\n      blobs: 2\n      blob_kb: -4"),
			"scenario.setup.containers[0].blob_kb must be >= 0"},
		{"weightOverflow", edit("table_get: 1", "table_get: 9223372036854775807"),
			"scenario.phases[0].ops.table_get 9223372036854775807 outside [1, 1000000]"},
		{"tableName", edit("usertable", "ut"), `setup.tables[0]: InvalidResourceName (400): table name "ut" must be 3-63 characters`},
		{"queueName", edit("workq", "Work_Q"), `queue name "Work_Q" contains invalid character`},
		{"containerName", edit("media", "m"), `container name "m" must be 3-63 characters`},
		{"bigEntity", edit("keys: 10", "keys: 10\n      entity_kb: 1024"),
			"setup.tables[0]: 1024 KB objects, over the 1023 KB one table write carries"},
		{"bigMessage", edit("- name: workq", "- name: workq\n      message_kb: 49"),
			"setup.queues[0]: 49 KB objects, over the 48 KB one queue write carries"},
		{"bigBlob", edit("- name: media", "- name: media\n      blob_kb: 65537"),
			"setup.containers[0]: 65537 KB objects, over the 65536 KB one blob write carries"},
		{"bigPayload", edit("    target:", "    payload_kb: 49\n    target:"),
			"payload_kb 49 is over the 48 KB one queue_put carries"},
		{"unknownExperiment", "name: x\ndriver: experiment\nexperiment: fig42\n",
			`scenario.experiment "fig42" is not a registered experiment (valid: table1, fig4,`},
		{"workloadConfig", runnableSpec + "config:\n  fault_workers: 4\n", `driver "workload" takes no config:`},
		{"negativeWorkers", "name: x\ndriver: experiment\nexperiment: fig4\nconfig:\n  workers: [1, -1]\n",
			"scenario.config.workers[1] must be >= 1"},
		{"faultRate", "name: x\ndriver: experiment\nexperiment: faults\nconfig:\n  fault_rates: [0, 2]\n",
			"scenario.config.fault_rates[1] 2 outside [0, 1]"},
		{"bigSharedMessage", "name: x\ndriver: experiment\nexperiment: faults\nconfig:\n  shared_msg_size_kb: 64\n",
			"config.shared_msg_size_kb 64: over the 48 KB one queue message carries"},
		{"preemptedWorker", runnableSpec + "faults:\n  preemptions:\n    - worker: 2\n      at: 1s\n",
			"faults.preemptions[0].worker 2: no closed-loop phase has that many clients (largest: 2)"},
		{"outageService", runnableSpec + "faults:\n  outages:\n    - service: cache\n      duration: 1s\n",
			`faults.outages[0].service must be blob, queue or table (got "cache")`},
		{"thetaUniform", edit("    target:", "    keys:\n      theta: 0.5\n    target:"),
			"keys.theta requires dist zipfian or hotflip"},
		{"flipAtUniform", edit("    target:", "    keys:\n      flip_at: 1s\n    target:"),
			"keys.flip_at requires dist hotflip"},
		{"thinkOpen", edit("kind: closed", "kind: poisson\n      rate: 10\n      think: 5ms"),
			`phases[0] (only): only closed-loop arrival takes "think"`},
		{"rateBurst", edit("kind: closed", "kind: burst\n      rate: 10\n      burst:\n        size: 2\n        every: 1s"),
			"phases[0] (only): burst arrival takes only a burst block"},
		{"duplicatePhase", twoPhases, "phases[1] (only): phases[0] has the same name"},
	}
	if _, err := Parse([]byte(runnableSpec)); err != nil {
		t.Fatalf("the base spec must parse: %v", err)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSchemaTags walks every type a scenario file decodes into: each field
// has a yaml key, each range tag is well formed and on a number, and each
// default decodes and lies inside its range — so the decoder can never
// meet a tag it cannot read.
func TestSchemaTags(t *testing.T) {
	var walk func(typ reflect.Type, path string)
	walk = func(typ reflect.Type, path string) {
		for typ.Kind() == reflect.Pointer || typ.Kind() == reflect.Slice {
			if typ == opMixType {
				return
			}
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct {
			return
		}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			at := path + "." + f.Tag.Get("yaml")
			if f.Tag.Get("yaml") == "" {
				t.Errorf("%s.%s has no yaml key", path, f.Name)
			}
			if rng := f.Tag.Get("range"); rng != "" {
				lo, hi, ok := strings.Cut(strings.Trim(rng, "[]()"), ",")
				num := f.Type
				for num.Kind() == reflect.Pointer || num.Kind() == reflect.Slice {
					num = num.Elem()
				}
				if !ok || !strings.ContainsAny(rng[:1], "[(") || !strings.ContainsAny(rng[len(rng)-1:], "])") ||
					!(num.Kind() == reflect.Int || num.Kind() == reflect.Int64 || num.Kind() == reflect.Float64) {
					t.Errorf("%s: malformed range %q on %s", at, rng, f.Type)
				}
				if rng[0] == '(' && hi == "" && lo != "0" {
					t.Errorf("%s: range %q: an open lower bound with no upper one must be 0 (\"must be positive\")", at, rng)
				}
				for _, b := range []string{lo, hi} {
					if _, err := strconv.ParseFloat(b, 64); b != "" && err != nil {
						t.Errorf("%s: range bound %q: %v", at, b, err)
					}
				}
			}
			if def := f.Tag.Get("default"); def != "" {
				d := &decoder{}
				v := reflect.New(f.Type).Elem()
				d.scalar(v, def, at)
				d.check(v, f.Tag.Get("range"), at)
				if len(d.errs)+len(d.bounds) > 0 {
					t.Errorf("%s: default %q: %v %v", at, def, d.errs, d.bounds)
				}
			}
			walk(f.Type, at)
		}
	}
	walk(reflect.TypeOf(Spec{}), "scenario")
}

// TestPatchFieldsNameWhatTheySet: Apply copies each ConfigPatch and
// ParamsPatch field onto the core.Config and model.Params field of the
// same name, which must exist and hold the patch's element type.
func TestPatchFieldsNameWhatTheySet(t *testing.T) {
	for _, pair := range []struct{ patch, dst reflect.Type }{
		{reflect.TypeOf(ConfigPatch{}), reflect.TypeOf(core.Config{})},
		{reflect.TypeOf(ParamsPatch{}), reflect.TypeOf(model.Params{})},
	} {
		for i := 0; i < pair.patch.NumField(); i++ {
			f := pair.patch.Field(i)
			want := f.Type
			if want.Kind() == reflect.Pointer {
				want = want.Elem()
			}
			if got, ok := pair.dst.FieldByName(f.Name); !ok || got.Type != want {
				t.Errorf("%s.%s: %s has no field %s of type %s", pair.patch.Name(), f.Name, pair.dst, f.Name, want)
			}
		}
	}
}

// TestApplySetsOnlyWhatThePatchSets: the golden experiment spec changes
// exactly the fields it names, lists are copied, and a spec with no
// patch leaves the configuration as it was.
func TestApplySetsOnlyWhatThePatchSets(t *testing.T) {
	sp, err := Load("testdata/experiment.yaml")
	if err != nil {
		t.Fatal(err)
	}
	base := core.QuickConfig()
	got := base
	sp.Apply(&got)
	want := base
	want.Seed = 1234
	want.Workers = []int{1, 8, 64}
	want.FaultRates = []float64{0, 0.1}
	want.FaultWorkers, want.FaultRounds = 16, 2
	want.GeoLagBounds = []time.Duration{5 * time.Second, 30 * time.Second}
	want.Params.TableServers, want.Params.GeoRegions = 4, 2
	want.Params.GeoReplicationLagBound = 15 * time.Second
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Apply:\n got %+v\nwant %+v", got, want)
	}
	sp.Config.Workers[0] = 99
	if got.Workers[0] == 99 {
		t.Error("Apply shares the spec's list with the configuration")
	}

	plain, err := Load("../../examples/scenarios/faults.yaml")
	if err != nil {
		t.Fatal(err)
	}
	got = base
	plain.Apply(&got)
	if !reflect.DeepEqual(got, base) {
		t.Error("a patch-free spec changed the configuration")
	}
}
