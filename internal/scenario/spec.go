package scenario

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
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
// metrics and decide the scenario's pass/fail.
type Spec struct {
	Name   string
	Title  string
	Driver string // "experiment" | "workload"
	Seed   int64  // optional seed override (0 = inherit the CLI/base config)
	// Trace turns on operation tracing for the run (core.Config.TraceOps),
	// which adds trace-derived stage metrics (trace.stage.<stage>.p99_ms
	// and friends) to the SLO-addressable metric map.
	Trace bool

	Experiment string // experiment id for driver: experiment

	Config ConfigPatch // core.Config overrides (experiment driver)
	Params ParamsPatch // model.Params overrides (both drivers)

	Faults *FaultSpec // workload driver: seeded fault plan
	Setup  SetupSpec  // workload driver: pre-created storage + preload
	Phases []Phase    // workload driver: executed in order

	// Checkpoint makes the workload driver snapshot the full simulation
	// state at a phase boundary (where the cloud is quiescent) and/or
	// resume from such a snapshot — the warm-start workflow.
	Checkpoint *CheckpointSpec

	SLOs []Assertion
}

// CheckpointSpec is the workload driver's checkpoint: stanza. The
// snapshot is taken after phase After completes, when the event heap is
// drained and every subsystem is quiescent, so it loads directly into a
// fresh cloud without replay.
type CheckpointSpec struct {
	// File is where the snapshot is written (and, under Restore modes,
	// read from). Empty means in-memory only — useful with ForkSeeds.
	File string
	// After names the phase whose completion triggers the snapshot.
	After string
	// Restore decides whether a run resumes from File instead of
	// executing the phases up to and including After:
	//   "never"  (default) — always run from scratch, write the snapshot
	//   "auto"   — resume when File exists, otherwise run and write it
	//   "always" — File must exist; resume from it
	Restore string
	// ForkSeeds, when non-empty, re-runs the phases after the checkpoint
	// once per seed, each fork starting from the identical warm state but
	// drawing its workload randomness from the fork seed. Fork phase
	// metrics are namespaced fork<seed>.<phase>.*.
	ForkSeeds []int64
}

// ConfigPatch holds optional core.Config overrides. Pointer fields (and
// nil slices) mean "leave the base configuration alone", so a patch-free
// spec reproduces the base run exactly.
type ConfigPatch struct {
	Workers         []int
	SharedMsgSizeKB *int

	FaultRates   []float64
	FaultWorkers *int
	FaultRounds  *int

	HotspotWorkers *int
	HotspotKeys    *int
	HotspotHorizon *time.Duration
	HotspotTheta   *float64

	GeoWorkers    *int
	GeoReaders    *int
	GeoHorizon    *time.Duration
	GeoFailoverAt *time.Duration
	GeoOutage     *time.Duration
	GeoLagBounds  []time.Duration
}

// ParamsPatch holds optional model.Params overrides: the geo/partition
// knobs a scenario may turn.
type ParamsPatch struct {
	TableServers               *int
	PartitionDynamic           *bool
	MaxTableServers            *int
	PartitionSplitOpsPerSec    *float64
	PartitionMergeOpsPerSec    *float64
	PartitionControlInterval   *time.Duration
	PartitionMigrationBlackout *time.Duration
	PartitionMapCacheTTL       *time.Duration
	GeoRegions                 *int
	GeoLagBound                *time.Duration
}

// FaultSpec compiles to a faults.Plan seeded from the run's seed.
type FaultSpec struct {
	Rate        float64       // uniform timeout/internal/reset mix, like faults.Uniform
	Timeout     time.Duration // client-side abandon for lost requests (0 = plan default)
	Outages     []OutageSpec
	Preemptions []PreemptionSpec
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
	Worker       int           // closed-loop client index within the phase
	At           time.Duration // eviction time, relative to phase start
	RestoreAfter time.Duration // downtime before the replacement resumes
}

// OutageSpec is one outage window.
type OutageSpec struct {
	Service  string // "blob", "queue", "table" ("" = every service)
	Station  string // exact station ("" = all)
	Start    time.Duration
	Duration time.Duration
}

// SetupSpec declares the storage objects created (and preloaded) before
// the first phase runs.
type SetupSpec struct {
	Tables     []TableSetup
	Queues     []QueueSetup
	Containers []ContainerSetup
}

// TableSetup preloads Keys entities (PartitionKey workload.Key(i),
// RowKey "row") of EntityKB each.
type TableSetup struct {
	Name     string
	Keys     int
	EntityKB int
}

// QueueSetup preloads Preload messages of MessageKB each.
type QueueSetup struct {
	Name      string
	Preload   int
	MessageKB int
}

// ContainerSetup preloads Blobs block blobs (named workload.Key(i)) of
// BlobKB each.
type ContainerSetup struct {
	Name   string
	Blobs  int
	BlobKB int
}

// Phase is one timed stage of a workload scenario.
type Phase struct {
	Name      string
	Duration  time.Duration
	Clients   int
	Arrival   Arrival
	Ops       []OpWeight // canonical op order, weights > 0
	Keys      KeyDist
	Target    Target
	PayloadKB int
}

// Arrival is the phase's arrival process.
type Arrival struct {
	Kind    string        // "closed" | "poisson" | "burst"
	Think   time.Duration // closed: think time between ops
	Rate    float64       // poisson: mean arrivals/s across the population
	Diurnal *Diurnal      // poisson: optional sinusoidal rate modulation
	Burst   *Burst        // burst: train shape
}

// Diurnal modulates a Poisson rate: rate(t) = Rate·(1 + Amplitude·sin(2πt/Period)).
type Diurnal struct {
	Period    time.Duration
	Amplitude float64 // in [0, 1]
}

// Burst dispatches Size simultaneous ops every Every.
type Burst struct {
	Size  int
	Every time.Duration
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
	Dist   string        // "uniform" | "zipfian" | "hotflip"
	Theta  float64       // zipfian skew (0 < θ < 1; 0 means YCSB's 0.99)
	FlipAt time.Duration // hotflip: offset from phase start when the hot end flips
}

// Target names the storage objects the phase drives. Each op kind
// requires its service's target to be set and declared in Setup.
type Target struct {
	Table     string
	Queue     string
	Container string
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

// Parse decodes a scenario spec from YAML source, rejecting unknown
// fields, malformed values and semantically invalid combinations.
func Parse(src []byte) (*Spec, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, err
	}
	d := &decodeState{}
	sp := decodeSpec(d.section(root, "scenario"))
	if err := d.err(); err != nil {
		return nil, err
	}
	if err := sp.validate(); err != nil {
		return nil, err
	}
	return sp, nil
}

// --- strict section decoding ---

// decodeState accumulates decode errors so one pass reports everything.
type decodeState struct {
	errs []string
}

func (d *decodeState) errorf(format string, args ...any) {
	d.errs = append(d.errs, fmt.Sprintf(format, args...))
}

func (d *decodeState) err() error {
	if len(d.errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(d.errs, "\n"))
}

func (d *decodeState) section(n *node, path string) *section {
	return &section{d: d, n: n, path: path, used: map[string]bool{}}
}

// section wraps one map node with typed, tracked field access; done()
// flags any field the decoder never asked for.
type section struct {
	d    *decodeState
	n    *node // nil or non-map → every access errors once, via ok()
	path string
	used map[string]bool
	bad  bool
}

func (s *section) ok() bool {
	if s.n == nil {
		return false
	}
	if s.n.kind != mapNode {
		if !s.bad {
			s.bad = true
			s.d.errorf("%s: line %d: expected a mapping", s.path, s.n.line)
		}
		return false
	}
	return true
}

func (s *section) get(key string) *node {
	if !s.ok() {
		return nil
	}
	s.used[key] = true
	return s.n.mapVals[key]
}

func (s *section) scalar(key string) (string, bool) {
	n := s.get(key)
	if n == nil {
		return "", false
	}
	if n.kind != scalarNode {
		s.d.errorf("%s.%s: line %d: expected a scalar value", s.path, key, n.line)
		return "", false
	}
	return n.scalar, true
}

func (s *section) str(key string) string {
	v, _ := s.scalar(key)
	return v
}

func (s *section) intv(key string, def int) int {
	v, ok := s.scalar(key)
	if !ok {
		return def
	}
	i, err := strconv.Atoi(v)
	if err != nil {
		s.d.errorf("%s.%s: bad integer %q", s.path, key, v)
		return def
	}
	return i
}

func (s *section) intp(key string) *int {
	if v, ok := s.scalar(key); ok {
		i, err := strconv.Atoi(v)
		if err != nil {
			s.d.errorf("%s.%s: bad integer %q", s.path, key, v)
			return nil
		}
		return &i
	}
	return nil
}

func (s *section) int64v(key string, def int64) int64 {
	v, ok := s.scalar(key)
	if !ok {
		return def
	}
	i, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		s.d.errorf("%s.%s: bad integer %q", s.path, key, v)
		return def
	}
	return i
}

func (s *section) floatv(key string, def float64) float64 {
	v, ok := s.scalar(key)
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		s.d.errorf("%s.%s: bad number %q", s.path, key, v)
		return def
	}
	return f
}

func (s *section) floatp(key string) *float64 {
	if v, ok := s.scalar(key); ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			s.d.errorf("%s.%s: bad number %q", s.path, key, v)
			return nil
		}
		return &f
	}
	return nil
}

func (s *section) boolp(key string) *bool {
	if v, ok := s.scalar(key); ok {
		switch v {
		case "true":
			b := true
			return &b
		case "false":
			b := false
			return &b
		}
		s.d.errorf("%s.%s: bad boolean %q (want true or false)", s.path, key, v)
	}
	return nil
}

func (s *section) dur(key string, def time.Duration) time.Duration {
	v, ok := s.scalar(key)
	if !ok {
		return def
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		s.d.errorf("%s.%s: bad duration %q (want e.g. 500ms, 30s)", s.path, key, v)
		return def
	}
	return d
}

func (s *section) durp(key string) *time.Duration {
	if v, ok := s.scalar(key); ok {
		d, err := time.ParseDuration(v)
		if err != nil {
			s.d.errorf("%s.%s: bad duration %q (want e.g. 500ms, 30s)", s.path, key, v)
			return nil
		}
		return &d
	}
	return nil
}

func (s *section) child(key string) *section {
	n := s.get(key)
	if n == nil {
		return nil
	}
	return s.d.section(n, s.path+"."+key)
}

func (s *section) listOf(key string) []*section {
	n := s.get(key)
	if n == nil {
		return nil
	}
	if n.kind != listNode {
		s.d.errorf("%s.%s: line %d: expected a list", s.path, key, n.line)
		return nil
	}
	out := make([]*section, len(n.list))
	for i, item := range n.list {
		out[i] = s.d.section(item, fmt.Sprintf("%s.%s[%d]", s.path, key, i))
	}
	return out
}

func (s *section) scalarList(key string) []string {
	n := s.get(key)
	if n == nil {
		return nil
	}
	if n.kind != listNode {
		s.d.errorf("%s.%s: line %d: expected a list", s.path, key, n.line)
		return nil
	}
	out := make([]string, 0, len(n.list))
	for _, item := range n.list {
		if item.kind != scalarNode {
			s.d.errorf("%s.%s: line %d: expected scalar list elements", s.path, key, item.line)
			return nil
		}
		out = append(out, item.scalar)
	}
	return out
}

func (s *section) ints(key string) []int {
	var out []int
	for _, v := range s.scalarList(key) {
		i, err := strconv.Atoi(v)
		if err != nil {
			s.d.errorf("%s.%s: bad integer %q", s.path, key, v)
			return nil
		}
		out = append(out, i)
	}
	return out
}

func (s *section) floats(key string) []float64 {
	var out []float64
	for _, v := range s.scalarList(key) {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			s.d.errorf("%s.%s: bad number %q", s.path, key, v)
			return nil
		}
		out = append(out, f)
	}
	return out
}

func (s *section) durs(key string) []time.Duration {
	var out []time.Duration
	for _, v := range s.scalarList(key) {
		d, err := time.ParseDuration(v)
		if err != nil {
			s.d.errorf("%s.%s: bad duration %q (want e.g. 500ms, 30s)", s.path, key, v)
			return nil
		}
		out = append(out, d)
	}
	return out
}

// done reports unknown fields: every key present but never accessed.
func (s *section) done() {
	if s.n == nil || s.n.kind != mapNode {
		return
	}
	var valid []string
	for k := range s.used {
		valid = append(valid, k)
	}
	sort.Strings(valid)
	for _, k := range s.n.mapKeys {
		if !s.used[k] {
			s.d.errorf("%s: line %d: unknown field %q (valid: %s)",
				s.path, s.n.mapVals[k].line, k, strings.Join(valid, ", "))
		}
	}
}

// --- spec decoding ---

func decodeSpec(s *section) *Spec {
	sp := &Spec{
		Name:       s.str("name"),
		Title:      s.str("title"),
		Driver:     s.str("driver"),
		Seed:       s.int64v("seed", 0),
		Experiment: s.str("experiment"),
	}
	if tp := s.boolp("trace"); tp != nil {
		sp.Trace = *tp
	}
	if cfg := s.child("config"); cfg != nil {
		sp.Config = decodeConfig(cfg)
	}
	if prm := s.child("params"); prm != nil {
		sp.Params = decodeParams(prm)
	}
	if f := s.child("faults"); f != nil {
		sp.Faults = decodeFaults(f)
	}
	if set := s.child("setup"); set != nil {
		sp.Setup = decodeSetup(set)
	}
	if ck := s.child("checkpoint"); ck != nil {
		sp.Checkpoint = decodeCheckpoint(ck)
	}
	for _, ps := range s.listOf("phases") {
		sp.Phases = append(sp.Phases, decodePhase(ps))
	}
	for _, as := range s.listOf("slo") {
		sp.SLOs = append(sp.SLOs, decodeAssertion(as))
	}
	s.done()
	return sp
}

func decodeConfig(s *section) ConfigPatch {
	p := ConfigPatch{
		Workers:         s.ints("workers"),
		SharedMsgSizeKB: s.intp("shared_msg_size_kb"),
		FaultRates:      s.floats("fault_rates"),
		FaultWorkers:    s.intp("fault_workers"),
		FaultRounds:     s.intp("fault_rounds"),
		HotspotWorkers:  s.intp("hotspot_workers"),
		HotspotKeys:     s.intp("hotspot_keys"),
		HotspotHorizon:  s.durp("hotspot_horizon"),
		HotspotTheta:    s.floatp("hotspot_theta"),
		GeoWorkers:      s.intp("geo_workers"),
		GeoReaders:      s.intp("geo_readers"),
		GeoHorizon:      s.durp("geo_horizon"),
		GeoFailoverAt:   s.durp("geo_failover_at"),
		GeoOutage:       s.durp("geo_outage"),
		GeoLagBounds:    s.durs("geo_lag_bounds"),
	}
	s.done()
	return p
}

func decodeParams(s *section) ParamsPatch {
	p := ParamsPatch{
		TableServers:               s.intp("table_servers"),
		PartitionDynamic:           s.boolp("partition_dynamic"),
		MaxTableServers:            s.intp("max_table_servers"),
		PartitionSplitOpsPerSec:    s.floatp("partition_split_ops_per_sec"),
		PartitionMergeOpsPerSec:    s.floatp("partition_merge_ops_per_sec"),
		PartitionControlInterval:   s.durp("partition_control_interval"),
		PartitionMigrationBlackout: s.durp("partition_migration_blackout"),
		PartitionMapCacheTTL:       s.durp("partition_map_cache_ttl"),
		GeoRegions:                 s.intp("geo_regions"),
		GeoLagBound:                s.durp("geo_lag_bound"),
	}
	s.done()
	return p
}

func decodeFaults(s *section) *FaultSpec {
	f := &FaultSpec{
		Rate:    s.floatv("rate", 0),
		Timeout: s.dur("timeout", 0),
	}
	for _, os := range s.listOf("outages") {
		f.Outages = append(f.Outages, OutageSpec{
			Service:  os.str("service"),
			Station:  os.str("station"),
			Start:    os.dur("start", 0),
			Duration: os.dur("duration", 0),
		})
		os.done()
	}
	for _, ps := range s.listOf("preemptions") {
		f.Preemptions = append(f.Preemptions, PreemptionSpec{
			Worker:       ps.intv("worker", 0),
			At:           ps.dur("at", 0),
			RestoreAfter: ps.dur("restore_after", 0),
		})
		ps.done()
	}
	s.done()
	return f
}

func decodeCheckpoint(s *section) *CheckpointSpec {
	ck := &CheckpointSpec{
		File:    s.str("file"),
		After:   s.str("after"),
		Restore: s.str("restore"),
	}
	for _, v := range s.ints("fork_seeds") {
		ck.ForkSeeds = append(ck.ForkSeeds, int64(v))
	}
	s.done()
	return ck
}

func decodeSetup(s *section) SetupSpec {
	var set SetupSpec
	for _, ts := range s.listOf("tables") {
		set.Tables = append(set.Tables, TableSetup{
			Name:     ts.str("name"),
			Keys:     ts.intv("keys", 0),
			EntityKB: ts.intv("entity_kb", 1),
		})
		ts.done()
	}
	for _, qs := range s.listOf("queues") {
		set.Queues = append(set.Queues, QueueSetup{
			Name:      qs.str("name"),
			Preload:   qs.intv("preload", 0),
			MessageKB: qs.intv("message_kb", 1),
		})
		qs.done()
	}
	for _, cs := range s.listOf("containers") {
		set.Containers = append(set.Containers, ContainerSetup{
			Name:   cs.str("name"),
			Blobs:  cs.intv("blobs", 0),
			BlobKB: cs.intv("blob_kb", 64),
		})
		cs.done()
	}
	s.done()
	return set
}

func decodePhase(s *section) Phase {
	ph := Phase{
		Name:      s.str("name"),
		Duration:  s.dur("duration", 0),
		Clients:   s.intv("clients", 1),
		PayloadKB: s.intv("payload_kb", 1),
	}
	if a := s.child("arrival"); a != nil {
		ph.Arrival = Arrival{
			Kind:  a.str("kind"),
			Think: a.dur("think", 0),
			Rate:  a.floatv("rate", 0),
		}
		if di := a.child("diurnal"); di != nil {
			ph.Arrival.Diurnal = &Diurnal{
				Period:    di.dur("period", 0),
				Amplitude: di.floatv("amplitude", 0),
			}
			di.done()
		}
		if b := a.child("burst"); b != nil {
			ph.Arrival.Burst = &Burst{
				Size:  b.intv("size", 0),
				Every: b.dur("every", 0),
			}
			b.done()
		}
		a.done()
	}
	if ops := s.child("ops"); ops != nil {
		// Weighted mix keyed by op kind; normalised to canonical order.
		for _, kind := range opKinds {
			if w := ops.intp(kind); w != nil {
				ph.Ops = append(ph.Ops, OpWeight{Op: kind, Weight: *w})
			}
		}
		ops.done()
	}
	if k := s.child("keys"); k != nil {
		ph.Keys = KeyDist{
			Dist:   k.str("dist"),
			Theta:  k.floatv("theta", 0),
			FlipAt: k.dur("flip_at", 0),
		}
		k.done()
	}
	if t := s.child("target"); t != nil {
		ph.Target = Target{
			Table:     t.str("table"),
			Queue:     t.str("queue"),
			Container: t.str("container"),
		}
		t.done()
	}
	s.done()
	return ph
}

func decodeAssertion(s *section) Assertion {
	a := Assertion{
		Metric: s.str("metric"),
		Op:     s.str("op"),
		Value:  s.floatv("value", 0),
	}
	s.done()
	return a
}

// --- validation ---

// opService maps an op kind to the target service it needs.
func opService(kind string) string {
	service, _, _ := strings.Cut(kind, "_")
	return service
}

func (sp *Spec) validate() error {
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
		}
		if len(sp.Phases) > 0 || sp.Faults != nil || len(sp.Setup.Tables)+len(sp.Setup.Queues)+len(sp.Setup.Containers) > 0 {
			fail("driver \"experiment\" takes no phases/faults/setup (use config/params overrides)")
		}
	case "workload":
		if sp.Experiment != "" {
			fail("driver \"workload\" does not take scenario.experiment")
		}
		if len(sp.Phases) == 0 {
			fail("driver \"workload\" requires at least one phase")
		}
	default:
		fail("scenario.driver must be \"experiment\" or \"workload\" (got %q)", sp.Driver)
	}
	if sp.Faults != nil {
		if sp.Faults.Rate < 0 || sp.Faults.Rate > 1 {
			fail("faults.rate %g outside [0, 1]", sp.Faults.Rate)
		}
		for i, o := range sp.Faults.Outages {
			if o.Duration <= 0 {
				fail("faults.outages[%d].duration must be positive", i)
			}
		}
		closed := false
		for _, ph := range sp.Phases {
			if ph.Arrival.Kind == "closed" {
				closed = true
			}
		}
		for i, pr := range sp.Faults.Preemptions {
			if pr.Worker < 0 {
				fail("faults.preemptions[%d].worker must be >= 0", i)
			}
			if pr.At <= 0 {
				fail("faults.preemptions[%d].at must be positive", i)
			}
			if pr.RestoreAfter < 0 {
				fail("faults.preemptions[%d].restore_after must be >= 0", i)
			}
			if !closed {
				fail("faults.preemptions[%d]: preemptions evict closed-loop workers, but no phase has closed arrival", i)
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
	tables := map[string]bool{}
	for i, t := range sp.Setup.Tables {
		if t.Name == "" {
			fail("setup.tables[%d].name is required", i)
		}
		tables[t.Name] = true
	}
	queues := map[string]bool{}
	for i, q := range sp.Setup.Queues {
		if q.Name == "" {
			fail("setup.queues[%d].name is required", i)
		}
		queues[q.Name] = true
	}
	containers := map[string]bool{}
	for i, c := range sp.Setup.Containers {
		if c.Name == "" {
			fail("setup.containers[%d].name is required", i)
		}
		containers[c.Name] = true
	}
	for i, ph := range sp.Phases {
		at := fmt.Sprintf("phases[%d] (%s)", i, ph.Name)
		if ph.Name == "" {
			fail("phases[%d].name is required", i)
		}
		if ph.Duration <= 0 {
			fail("%s: duration must be positive", at)
		}
		if ph.Clients < 1 {
			fail("%s: clients must be >= 1", at)
		}
		if ph.PayloadKB < 1 {
			fail("%s: payload_kb must be >= 1", at)
		}
		switch ph.Arrival.Kind {
		case "closed":
			if ph.Arrival.Rate != 0 || ph.Arrival.Diurnal != nil || ph.Arrival.Burst != nil {
				fail("%s: closed-loop arrival takes only \"think\"", at)
			}
		case "poisson":
			if ph.Arrival.Rate <= 0 {
				fail("%s: poisson arrival requires rate > 0", at)
			}
			if d := ph.Arrival.Diurnal; d != nil {
				if d.Period <= 0 {
					fail("%s: diurnal.period must be positive", at)
				}
				if d.Amplitude < 0 || d.Amplitude > 1 {
					fail("%s: diurnal.amplitude %g outside [0, 1]", at, d.Amplitude)
				}
			}
			if ph.Arrival.Burst != nil {
				fail("%s: poisson arrival takes no burst block", at)
			}
		case "burst":
			b := ph.Arrival.Burst
			if b == nil {
				fail("%s: burst arrival requires a burst block", at)
			} else {
				if b.Size < 1 {
					fail("%s: burst.size must be >= 1", at)
				}
				if b.Every <= 0 {
					fail("%s: burst.every must be positive", at)
				}
			}
			if ph.Arrival.Diurnal != nil {
				fail("%s: burst arrival takes no diurnal block", at)
			}
		default:
			fail("%s: arrival.kind must be closed, poisson or burst (got %q)", at, ph.Arrival.Kind)
		}
		if len(ph.Ops) == 0 {
			fail("%s: ops mix is required", at)
		}
		for _, ow := range ph.Ops {
			if ow.Weight <= 0 {
				fail("%s: ops.%s weight must be positive", at, ow.Op)
				continue
			}
			switch opService(ow.Op) {
			case "table":
				if ph.Target.Table == "" {
					fail("%s: op %s requires target.table", at, ow.Op)
				} else if !tables[ph.Target.Table] {
					fail("%s: target.table %q is not declared in setup.tables", at, ph.Target.Table)
				}
			case "queue":
				if ph.Target.Queue == "" {
					fail("%s: op %s requires target.queue", at, ow.Op)
				} else if !queues[ph.Target.Queue] {
					fail("%s: target.queue %q is not declared in setup.queues", at, ph.Target.Queue)
				}
			case "blob":
				if ph.Target.Container == "" {
					fail("%s: op %s requires target.container", at, ow.Op)
				} else if !containers[ph.Target.Container] {
					fail("%s: target.container %q is not declared in setup.containers", at, ph.Target.Container)
				}
			}
		}
		switch ph.Keys.Dist {
		case "", "uniform":
		case "zipfian":
			if ph.Keys.FlipAt != 0 {
				fail("%s: keys.flip_at requires dist hotflip", at)
			}
		case "hotflip":
		default:
			fail("%s: keys.dist must be uniform, zipfian or hotflip (got %q)", at, ph.Keys.Dist)
		}
		if ph.Keys.Theta != 0 && (ph.Keys.Theta <= 0 || ph.Keys.Theta >= 1) {
			fail("%s: keys.theta %g outside (0, 1)", at, ph.Keys.Theta)
		}
		needsTableKeys := ph.Target.Table != "" && tables[ph.Target.Table]
		if needsTableKeys {
			for _, t := range sp.Setup.Tables {
				if t.Name == ph.Target.Table && t.Keys < 1 {
					fail("%s: target table %q has no preloaded keys (setup.tables keys >= 1)", at, t.Name)
				}
			}
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
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(errs, "\n"))
}
