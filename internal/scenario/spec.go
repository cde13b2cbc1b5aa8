package scenario

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"time"

	"azurebench/internal/core"
	"azurebench/internal/storecommon"
)

// Spec is one decoded scenario. Exactly one driver interprets it:
//
//   - "experiment": the scenario is a declarative twin of a registered
//     hard-coded experiment (core.Lookup), optionally re-parameterised via
//     Config/Params. With no overrides the run is byte-identical to
//     `azurebench -experiment <id>` under the same base configuration.
//   - "workload": the generic engine executes Setup then Phases against a
//     fresh simulated cloud.
//
// Either way the SLO assertions are evaluated against the run's flattened
// metrics and decide the scenario's pass/fail. The yaml/default/range tags
// are the file format (decode.go).
type Spec struct {
	Name   string `yaml:"name"`
	Title  string `yaml:"title"`
	Driver string `yaml:"driver"` // "experiment" | "workload"
	Seed   int64  `yaml:"seed"`   // optional seed override (0 = inherit the CLI/base config)
	// Trace turns on operation tracing for the run (core.Config.TraceOps),
	// which adds trace-derived stage metrics (trace.stage.<stage>.p99_ms
	// and friends) to the SLO-addressable metric map.
	Trace bool `yaml:"trace"`

	Experiment string `yaml:"experiment"` // experiment id for driver: experiment

	Config ConfigPatch `yaml:"config"` // core.Config overrides (experiment driver)
	Params ParamsPatch `yaml:"params"` // model.Params overrides (both drivers)

	Faults *FaultSpec `yaml:"faults"` // workload driver: seeded fault plan
	Setup  SetupSpec  `yaml:"setup"`  // workload driver: pre-created storage + preload
	Phases []Phase    `yaml:"phases"` // workload driver: executed in order

	// Checkpoint makes the workload driver snapshot the full simulation
	// state at a phase boundary (where the cloud is quiescent) and/or
	// resume from such a snapshot — the warm-start workflow.
	Checkpoint *CheckpointSpec `yaml:"checkpoint"`

	SLOs []Assertion `yaml:"slo"`
}

// CheckpointSpec is the workload driver's checkpoint: stanza. The
// snapshot is taken after phase After completes, when no event is
// pending and every subsystem is quiescent, so it loads directly into a
// fresh cloud without replay.
type CheckpointSpec struct {
	// File is where the snapshot is written (and, under Restore modes,
	// read from). Empty means in-memory only — useful with ForkSeeds.
	File string `yaml:"file"`
	// After names the phase whose completion triggers the snapshot.
	After string `yaml:"after"`
	// Restore decides whether a run resumes from File instead of
	// executing the phases up to and including After:
	//   "never"  (default) — always run from scratch, write the snapshot
	//   "auto"   — resume when File exists, otherwise run and write it
	//   "always" — File must exist; resume from it
	Restore string `yaml:"restore"`
	// ForkSeeds, when non-empty, re-runs the phases after the checkpoint
	// once per seed, each fork starting from the identical warm state but
	// drawing its workload randomness from the fork seed. Fork phase
	// metrics are namespaced fork<seed>.<phase>.*.
	ForkSeeds []int64 `yaml:"fork_seeds"`
}

// ConfigPatch holds optional core.Config overrides, each field named as
// the core.Config field it sets. Pointer fields (and nil slices) mean
// "leave the base configuration alone", so a patch-free spec reproduces
// the base run exactly.
type ConfigPatch struct {
	Workers         []int `yaml:"workers" range:"[1,)"`
	SharedMsgSizeKB *int  `yaml:"shared_msg_size_kb" range:"[0,)"`

	FaultRates   []float64 `yaml:"fault_rates" range:"[0,1]"`
	FaultWorkers *int      `yaml:"fault_workers" range:"[1,)"`
	FaultRounds  *int      `yaml:"fault_rounds" range:"[1,)"`

	HotspotWorkers *int           `yaml:"hotspot_workers" range:"[1,)"`
	HotspotKeys    *int           `yaml:"hotspot_keys" range:"[1,)"`
	HotspotHorizon *time.Duration `yaml:"hotspot_horizon" range:"(0,)"`
	HotspotTheta   *float64       `yaml:"hotspot_theta" range:"[0,1)"` // 0 = YCSB's 0.99

	GeoWorkers        *int            `yaml:"geo_workers" range:"[1,)"`
	GeoReaders        *int            `yaml:"geo_readers" range:"[0,)"`
	GeoHorizon        *time.Duration  `yaml:"geo_horizon" range:"(0,)"`
	GeoFailoverAt     *time.Duration  `yaml:"geo_failover_at" range:"[0,)"`
	GeoOutageDuration *time.Duration  `yaml:"geo_outage" range:"(0,)"`
	GeoLagBounds      []time.Duration `yaml:"geo_lag_bounds" range:"[0,)"`
}

// ParamsPatch holds optional model.Params overrides, each field named as
// the model.Params field it sets: the geo/partition knobs a scenario may
// turn.
type ParamsPatch struct {
	TableServers               *int           `yaml:"table_servers" range:"[1,)"`
	PartitionDynamic           *bool          `yaml:"partition_dynamic"`
	MaxTableServers            *int           `yaml:"max_table_servers" range:"[1,)"`
	PartitionSplitOpsPerSec    *float64       `yaml:"partition_split_ops_per_sec" range:"[0,)"`
	PartitionMergeOpsPerSec    *float64       `yaml:"partition_merge_ops_per_sec" range:"[0,)"`
	PartitionControlInterval   *time.Duration `yaml:"partition_control_interval" range:"(0,)"`
	PartitionMigrationBlackout *time.Duration `yaml:"partition_migration_blackout" range:"[0,)"`
	PartitionMapCacheTTL       *time.Duration `yaml:"partition_map_cache_ttl" range:"[0,)"`
	GeoRegions                 *int           `yaml:"geo_regions" range:"[1,)"`
	GeoReplicationLagBound     *time.Duration `yaml:"geo_lag_bound" range:"[0,)"`
}

// Apply folds the spec's overrides into a base configuration. Call it
// before core.NewSuite; a patch-free spec leaves cfg untouched, which is
// what makes experiment-driver scenarios byte-identical to their
// hard-coded twins.
func (sp *Spec) Apply(cfg *core.Config) {
	if sp.Seed != 0 {
		cfg.Seed = sp.Seed
	}
	if sp.Trace {
		cfg.TraceOps = true
	}
	patch(reflect.ValueOf(cfg).Elem(), reflect.ValueOf(sp.Config))
	patch(reflect.ValueOf(&cfg.Params).Elem(), reflect.ValueOf(sp.Params))
}

// patch copies every field p sets — a non-nil pointer's pointee, a
// non-nil slice's elements — onto the field of dst with the same name.
func patch(dst, p reflect.Value) {
	for i := 0; i < p.NumField(); i++ {
		f := p.Field(i)
		if f.IsNil() {
			continue
		}
		to := dst.FieldByName(p.Type().Field(i).Name)
		if f.Kind() == reflect.Pointer {
			to.Set(f.Elem())
		} else {
			to.Set(reflect.AppendSlice(reflect.Zero(f.Type()), f))
		}
	}
}

// FaultSpec compiles to a faults.Plan seeded from the run's seed.
type FaultSpec struct {
	Rate        float64          `yaml:"rate" range:"[0,1]"`   // uniform timeout/internal/reset mix, like faults.Uniform
	Timeout     time.Duration    `yaml:"timeout" range:"[0,)"` // client-side abandon for lost requests (0 = plan default)
	Outages     []OutageSpec     `yaml:"outages"`
	Preemptions []PreemptionSpec `yaml:"preemptions"`
}

// PreemptionSpec schedules a spot-eviction of one closed-loop worker: At
// after the phase starts, the worker serializes its client state through
// the snapshot codec and dies; RestoreAfter later a replacement client (a
// fresh VM with its own NIC station) deserializes that state and
// continues the loop. At is phase-relative so -quick duration scaling
// cannot push the eviction past the end of the phase; it applies to every
// closed-arrival phase whose (scaled) duration exceeds At. Schedule-
// driven, so it consumes no injector randomness.
type PreemptionSpec struct {
	Worker       int           `yaml:"worker" range:"[0,)"`        // closed-loop client index within the phase
	At           time.Duration `yaml:"at" range:"(0,)"`            // eviction time, relative to phase start
	RestoreAfter time.Duration `yaml:"restore_after" range:"[0,)"` // downtime before the replacement resumes
}

// OutageSpec is one outage window.
type OutageSpec struct {
	Service  string        `yaml:"service"` // "blob", "queue", "table" ("" = every service)
	Station  string        `yaml:"station"` // exact station ("" = all)
	Start    time.Duration `yaml:"start" range:"[0,)"`
	Duration time.Duration `yaml:"duration" range:"(0,)"`
}

// SetupSpec declares the storage objects created (and preloaded) before
// the first phase runs.
type SetupSpec struct {
	Tables     []TableSetup     `yaml:"tables"`
	Queues     []QueueSetup     `yaml:"queues"`
	Containers []ContainerSetup `yaml:"containers"`
}

// TableSetup preloads Keys entities (PartitionKey workload.Key(i),
// RowKey "row") of EntityKB each.
type TableSetup struct {
	Name     string `yaml:"name"`
	Keys     int    `yaml:"keys" range:"[0,)"`
	EntityKB int    `yaml:"entity_kb" default:"1" range:"[0,)"`
}

// QueueSetup preloads Preload messages of MessageKB each.
type QueueSetup struct {
	Name      string `yaml:"name"`
	Preload   int    `yaml:"preload" range:"[0,)"`
	MessageKB int    `yaml:"message_kb" default:"1" range:"[0,)"`
}

// ContainerSetup preloads Blobs block blobs (named workload.Key(i)) of
// BlobKB each.
type ContainerSetup struct {
	Name   string `yaml:"name"`
	Blobs  int    `yaml:"blobs" range:"[0,)"`
	BlobKB int    `yaml:"blob_kb" default:"64" range:"[0,)"`
}

// Phase is one timed stage of a workload scenario.
type Phase struct {
	Name      string        `yaml:"name"`
	Duration  time.Duration `yaml:"duration" range:"(0,)"`
	Clients   int           `yaml:"clients" default:"1" range:"[1,)"`
	Arrival   Arrival       `yaml:"arrival"`
	Ops       []OpWeight    `yaml:"ops"` // canonical op order, weights in weightRange
	Keys      KeyDist       `yaml:"keys"`
	Target    Target        `yaml:"target"`
	PayloadKB int           `yaml:"payload_kb" default:"1" range:"[1,)"`
}

// Arrival is the phase's arrival process.
type Arrival struct {
	Kind    string        `yaml:"kind"`               // "closed" | "poisson" | "burst"
	Think   time.Duration `yaml:"think" range:"[0,)"` // closed: think time between ops
	Rate    float64       `yaml:"rate"`               // poisson: mean arrivals/s across the population
	Diurnal *Diurnal      `yaml:"diurnal"`            // poisson: optional sinusoidal rate modulation
	Burst   *Burst        `yaml:"burst"`              // burst: train shape
}

// Diurnal modulates a Poisson rate: rate(t) = Rate·(1 + Amplitude·sin(2πt/Period)).
type Diurnal struct {
	Period    time.Duration `yaml:"period" range:"(0,)"`
	Amplitude float64       `yaml:"amplitude" range:"[0,1]"`
}

// Burst dispatches Size simultaneous ops every Every.
type Burst struct {
	Size  int           `yaml:"size" range:"[1,)"`
	Every time.Duration `yaml:"every" range:"(0,)"`
}

// OpWeight is one weighted entry of a phase's op mix.
type OpWeight struct {
	Op     string
	Weight int
}

// opKinds is the canonical op vocabulary, in the order mixes are
// normalised to (so weight tables and counters render deterministically).
var opKinds = []string{
	opBlobPut: "blob_put", opBlobGet: "blob_get",
	opQueuePut: "queue_put", opQueueGet: "queue_get", opQueueDelete: "queue_delete",
	opTableGet: "table_get", opTableInsert: "table_insert", opTableUpdate: "table_update",
	opTableDelete: "table_delete", opTableRMW: "table_rmw", opTableScan: "table_scan",
}

// KeyDist selects record indices.
type KeyDist struct {
	Dist   string        `yaml:"dist"`                 // "uniform" | "zipfian" | "hotflip"
	Theta  float64       `yaml:"theta"`                // zipfian skew (0 < θ < 1; 0 means YCSB's 0.99)
	FlipAt time.Duration `yaml:"flip_at" range:"[0,)"` // hotflip: offset from phase start when the hot end flips
}

// Target names the storage objects the phase drives. Each op kind
// requires its service's target to be set and declared in Setup.
type Target struct {
	Table     string `yaml:"table"`
	Queue     string `yaml:"queue"`
	Container string `yaml:"container"`
}

// Load reads and decodes one scenario file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sp, nil
}

// Parse decodes a scenario spec from YAML source. It refuses every spec
// that cannot run as written: unknown fields, malformed or out-of-range
// values, semantically invalid combinations, and what the storage
// services would refuse at run time — names they do not accept, objects
// larger than one of their writes carries — and an experiment that is not
// registered.
func Parse(src []byte) (*Spec, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	sp := &Spec{}
	d := &decoder{}
	d.value(reflect.ValueOf(sp).Elem(), root, "scenario")
	errs := d.errs
	if len(errs) == 0 {
		// The spec has its shape: report values out of range together
		// with the rules that span fields.
		errs = append(d.bounds, sp.validate()...)
	}
	if len(errs) > 0 {
		return nil, fmt.Errorf("%s", strings.Join(errs, "\n"))
	}
	return sp, nil
}

// --- validation ---

// opService maps an op kind to the target service it needs.
func opService(kind string) string {
	service, _, _ := strings.Cut(kind, "_")
	return service
}

// services holds, per op service, how a phase names its target, how setup
// lists it, the names the service accepts and the largest payload in KB
// one write carries: a message's usable payload, an entity with its keys
// and property name in its last KB, a single-shot block blob.
var services = map[string]struct {
	target, setup string
	validName     func(string) error
	capKB         int
}{
	"table": {"table", "tables", storecommon.ValidateTableName, storecommon.MaxEntitySize/storecommon.KB - 1},
	"queue": {"queue", "queues", storecommon.ValidateQueueName, storecommon.MaxMessagePayload / storecommon.KB},
	"blob":  {"container", "containers", storecommon.ValidateContainerName, storecommon.MaxSingleShotBlob / storecommon.KB},
}

// writes reports whether op sends the phase's payload.
func writes(op string) bool {
	switch op {
	case "blob_get", "queue_get", "queue_delete", "table_get", "table_scan":
		return false
	}
	return true
}

// of returns the phase's target on service.
func (t Target) of(service string) string {
	switch service {
	case "table":
		return t.Table
	case "queue":
		return t.Queue
	}
	return t.Container
}

// validate checks the rules that span fields.
func (sp *Spec) validate() []string {
	var errs []string
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}
	if sp.Name == "" {
		fail("scenario.name is required")
	}
	switch sp.Driver {
	case "experiment":
		if sp.Experiment == "" {
			fail("driver \"experiment\" requires scenario.experiment (an experiment id)")
		} else if _, ok := core.Lookup(sp.Experiment); !ok {
			var ids []string
			for _, e := range core.Experiments() {
				ids = append(ids, e.ID)
			}
			fail("scenario.experiment %q is not a registered experiment (valid: %s)", sp.Experiment, strings.Join(ids, ", "))
		}
		if len(sp.Phases) > 0 || sp.Faults != nil || len(sp.Setup.Tables)+len(sp.Setup.Queues)+len(sp.Setup.Containers) > 0 {
			fail("driver \"experiment\" takes no phases/faults/setup (use config/params overrides)")
		}
	case "workload":
		if sp.Experiment != "" {
			fail("driver \"workload\" does not take scenario.experiment")
		}
		if !reflect.ValueOf(sp.Config).IsZero() {
			fail("driver \"workload\" takes no config: (it re-parameterises registered experiments; a workload's knobs are its phases and params:)")
		}
		if len(sp.Phases) == 0 {
			fail("driver \"workload\" requires at least one phase")
		}
	default:
		fail("scenario.driver must be \"experiment\" or \"workload\" (got %q)", sp.Driver)
	}
	if sp.Faults != nil {
		for i, o := range sp.Faults.Outages {
			if _, ok := services[o.Service]; !ok && o.Service != "" {
				fail("faults.outages[%d].service must be blob, queue or table (got %q)", i, o.Service)
			}
		}
		closedClients := 0 // the largest closed-loop population
		for _, ph := range sp.Phases {
			if ph.Arrival.Kind == "closed" {
				closedClients = max(closedClients, ph.Clients)
			}
		}
		for i, pr := range sp.Faults.Preemptions {
			if closedClients == 0 {
				fail("faults.preemptions[%d]: preemptions evict closed-loop workers, but no phase has closed arrival", i)
			} else if pr.Worker >= closedClients {
				fail("faults.preemptions[%d].worker %d: no closed-loop phase has that many clients (largest: %d)", i, pr.Worker, closedClients)
			}
		}
	}
	if ck := sp.Checkpoint; ck != nil {
		if sp.Driver != "workload" {
			fail("checkpoint: stanza requires driver \"workload\"")
		}
		idx := -1
		for i, ph := range sp.Phases {
			if ph.Name == ck.After {
				idx = i
			}
		}
		if ck.After == "" {
			fail("checkpoint.after is required (the phase the snapshot follows)")
		} else if idx < 0 {
			fail("checkpoint.after %q does not name a phase", ck.After)
		} else if idx == len(sp.Phases)-1 && (len(ck.ForkSeeds) > 0 || ck.Restore != "" && ck.Restore != "never") {
			fail("checkpoint.after %q is the last phase: nothing remains to resume or fork", ck.After)
		}
		switch ck.Restore {
		case "", "never":
		case "auto", "always":
			if ck.File == "" {
				fail("checkpoint.restore %q requires checkpoint.file", ck.Restore)
			}
		default:
			fail("checkpoint.restore must be auto, always or never (got %q)", ck.Restore)
		}
		seen := map[int64]bool{}
		for i, seed := range ck.ForkSeeds {
			if seen[seed] {
				fail("checkpoint.fork_seeds[%d]: duplicate seed %d", i, seed)
			}
			seen[seed] = true
		}
	}
	declared := map[string]map[string]bool{"table": {}, "queue": {}, "blob": {}}
	object := func(service string, i int, name string, kb int) {
		svc := services[service]
		at := fmt.Sprintf("setup.%s[%d]", svc.setup, i)
		if err := svc.validName(name); err != nil {
			fail("%s: %v", at, err)
		}
		if kb > svc.capKB {
			fail("%s: %d KB objects, over the %d KB one %s write carries", at, kb, svc.capKB, service)
		}
		declared[service][name] = true
	}
	tableKeys := map[string]int{}
	for i, t := range sp.Setup.Tables {
		object("table", i, t.Name, t.EntityKB)
		tableKeys[t.Name] = t.Keys
	}
	for i, q := range sp.Setup.Queues {
		object("queue", i, q.Name, q.MessageKB)
	}
	for i, c := range sp.Setup.Containers {
		object("blob", i, c.Name, c.BlobKB)
	}
	if kb := sp.Config.SharedMsgSizeKB; kb != nil && *kb > services["queue"].capKB {
		fail("config.shared_msg_size_kb %d: over the %d KB one queue message carries", *kb, services["queue"].capKB)
	}
	phaseNamed := map[string]int{}
	for i, ph := range sp.Phases {
		at := fmt.Sprintf("phases[%d] (%s)", i, ph.Name)
		if ph.Name == "" {
			fail("phases[%d].name is required", i)
		} else if j, dup := phaseNamed[ph.Name]; dup {
			fail("%s: phases[%d] has the same name (a phase's metrics are named after it)", at, j)
		}
		phaseNamed[ph.Name] = i
		switch ph.Arrival.Kind {
		case "closed":
			if ph.Arrival.Rate != 0 || ph.Arrival.Diurnal != nil || ph.Arrival.Burst != nil {
				fail("%s: closed-loop arrival takes only \"think\"", at)
			}
		case "poisson":
			if ph.Arrival.Rate <= 0 {
				fail("%s: poisson arrival requires rate > 0", at)
			}
			if ph.Arrival.Burst != nil {
				fail("%s: poisson arrival takes no burst block", at)
			}
		case "burst":
			if ph.Arrival.Burst == nil {
				fail("%s: burst arrival requires a burst block", at)
			}
			if ph.Arrival.Diurnal != nil || ph.Arrival.Rate != 0 {
				fail("%s: burst arrival takes only a burst block", at)
			}
		default:
			fail("%s: arrival.kind must be closed, poisson or burst (got %q)", at, ph.Arrival.Kind)
		}
		if ph.Arrival.Kind != "closed" && ph.Arrival.Think != 0 {
			fail("%s: only closed-loop arrival takes \"think\"", at)
		}
		if len(ph.Ops) == 0 {
			fail("%s: ops mix is required", at)
		}
		for _, ow := range ph.Ops {
			service := opService(ow.Op)
			svc, target := services[service], ph.Target.of(service)
			switch {
			case target == "":
				fail("%s: op %s requires target.%s", at, ow.Op, svc.target)
			case !declared[service][target]:
				fail("%s: target.%s %q is not declared in setup.%s", at, svc.target, target, svc.setup)
			}
			if writes(ow.Op) && ph.PayloadKB > svc.capKB {
				fail("%s: payload_kb %d is over the %d KB one %s carries", at, ph.PayloadKB, svc.capKB, ow.Op)
			}
		}
		switch ph.Keys.Dist {
		case "", "uniform":
			if ph.Keys.Theta != 0 {
				fail("%s: keys.theta requires dist zipfian or hotflip", at)
			}
		case "zipfian", "hotflip":
		default:
			fail("%s: keys.dist must be uniform, zipfian or hotflip (got %q)", at, ph.Keys.Dist)
		}
		if ph.Keys.FlipAt != 0 && ph.Keys.Dist != "hotflip" {
			fail("%s: keys.flip_at requires dist hotflip", at)
		}
		if ph.Keys.Theta != 0 && (ph.Keys.Theta <= 0 || ph.Keys.Theta >= 1) {
			fail("%s: keys.theta %g outside (0, 1)", at, ph.Keys.Theta)
		}
		if keys, ok := tableKeys[ph.Target.Table]; ok && ph.Target.Table != "" && keys < 1 {
			fail("%s: target table %q has no preloaded keys (setup.tables keys >= 1)", at, ph.Target.Table)
		}
	}
	for i, a := range sp.SLOs {
		if a.Metric == "" {
			fail("slo[%d].metric is required", i)
		}
		switch a.Op {
		case "<=", ">=", "<", ">", "==", "!=":
		default:
			fail("slo[%d].op must be one of <=, >=, <, >, ==, != (got %q)", i, a.Op)
		}
	}
	return errs
}
