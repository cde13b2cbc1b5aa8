// Package core is AzureBench itself: the benchmark suite of the paper's
// Section IV, reimplemented over the simulated Azure cloud. Each
// experiment (one per paper table/figure) deploys worker-role processes
// against a fresh cloud, runs the corresponding algorithm (Algorithms 1,
// 3, 4, 5 and the Algorithm 2 barrier), and emits the figure's data series
// in virtual time.
package core

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/metrics"
	"azurebench/internal/model"
	"azurebench/internal/partitionmgr"
	"azurebench/internal/sim"
	"azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/telemetry"
	"azurebench/internal/trace"
)

// Config scales the suite. DefaultConfig reproduces the paper's setup;
// tests shrink it for speed.
type Config struct {
	// Workers is the worker-role sweep (paper: up to 100 processors).
	Workers []int
	// VM is the worker VM size.
	VM model.VMSize
	// Params is the cloud performance model.
	Params model.Params
	// Seed feeds the deterministic simulation.
	Seed int64

	// Blob benchmark (Algorithm 1 / Figures 4-5).
	BlobMB     int // blob size per type (paper: 100)
	ChunkMB    int // upload chunk (paper: 1)
	ChunkReads int // per-worker random page / sequential block reads (paper: 100)

	// Queue benchmark, queue per worker (Algorithm 3 / Figure 6).
	QueueMessages int   // total messages across workers (paper: 20 000)
	QueueSizesKB  []int // message sizes (paper: 4, 8, 16, 32, 64)

	// Queue benchmark, shared queue (Algorithm 4 / Figure 7).
	SharedRounds    int             // total put/peek/get rounds across workers
	SharedMsgSizeKB int             // paper: 32
	ThinkTimes      []time.Duration // paper: 1s..5s

	// Table benchmark (Algorithm 5 / Figure 8).
	TableEntities int   // per worker (paper: 500)
	TableSizesKB  []int // entity sizes (paper: 4, 8, 16, 32, 64)

	// Fault-injection benchmark (goodput under a seeded fault plan).
	FaultRates   []float64 // fraction of requests faulted (0 = baseline)
	FaultWorkers int       // worker roles in the fault experiment
	FaultRounds  int       // total put/get/delete rounds across workers

	// Hotspot benchmark (dynamic partition manager vs static placement
	// under a zipfian key distribution).
	HotspotWorkers int           // closed-loop reader roles
	HotspotKeys    int           // distinct partition keys in the table
	HotspotHorizon time.Duration // measured window per placement mode
	HotspotTheta   float64       // zipfian skew (0 = YCSB's 0.99)

	// Geo-replication benchmark (RPO/RTO and RA-GRS staleness across a
	// region-outage failover).
	GeoWorkers        int             // closed-loop writer roles on the active region
	GeoReaders        int             // RA-GRS readers polling the secondary
	GeoHorizon        time.Duration   // full run length per lag bound
	GeoFailoverAt     time.Duration   // primary-region outage start
	GeoOutageDuration time.Duration   // primary-region outage length
	GeoLagBounds      []time.Duration // replication lag bounds to sweep

	// TraceOps attaches an operation log (Suite.TraceLog) to every cloud
	// the experiments build.
	TraceOps bool

	// Telemetry attaches a station sampler to the experiments'
	// instrumented data points, recording per-partition-server queue
	// depth, utilization and throttle-reject rate on the virtual clock
	// (Suite.Samplers). Sampling only reads statistics, so the simulated
	// results are unchanged by it.
	Telemetry bool
	// TelemetryInterval is the sampling period (<= 0 means 250ms).
	TelemetryInterval time.Duration
}

// DefaultConfig returns the paper-scale configuration.
func DefaultConfig() Config {
	return Config{
		Workers:         []int{1, 2, 4, 8, 16, 32, 48, 64, 80, 96},
		VM:              model.Small,
		Params:          model.Default(),
		Seed:            2012,
		BlobMB:          100,
		ChunkMB:         1,
		ChunkReads:      100,
		QueueMessages:   20000,
		QueueSizesKB:    []int{4, 8, 16, 32, 64},
		SharedRounds:    2000,
		SharedMsgSizeKB: 32,
		ThinkTimes: []time.Duration{
			1 * time.Second, 2 * time.Second, 3 * time.Second,
			4 * time.Second, 5 * time.Second,
		},
		TableEntities: 500,
		TableSizesKB:  []int{4, 8, 16, 32, 64},
		FaultRates:    []float64{0, 0.01, 0.02, 0.05},
		FaultWorkers:  8,
		FaultRounds:   2000,

		HotspotWorkers: 48,
		HotspotKeys:    128,
		HotspotHorizon: 60 * time.Second,
		HotspotTheta:   0.99,

		GeoWorkers:        8,
		GeoReaders:        4,
		GeoHorizon:        60 * time.Second,
		GeoFailoverAt:     20 * time.Second,
		GeoOutageDuration: 10 * time.Second,
		GeoLagBounds:      []time.Duration{time.Second, 5 * time.Second},
	}
}

// QuickConfig returns a reduced configuration for smoke runs and tests:
// the same experiments at roughly 1/10 scale.
func QuickConfig() Config {
	cfg := DefaultConfig()
	cfg.Workers = []int{1, 2, 4, 8, 16, 32}
	cfg.BlobMB = 20
	cfg.ChunkReads = 20
	cfg.QueueMessages = 2000
	cfg.QueueSizesKB = []int{4, 16, 48}
	cfg.SharedRounds = 300
	cfg.ThinkTimes = []time.Duration{1 * time.Second, 3 * time.Second, 5 * time.Second}
	cfg.TableEntities = 50
	cfg.TableSizesKB = []int{4, 16, 64}
	cfg.FaultRates = []float64{0, 0.02, 0.05}
	cfg.FaultWorkers = 4
	cfg.FaultRounds = 400
	cfg.HotspotWorkers = 48
	cfg.HotspotKeys = 96
	cfg.HotspotHorizon = 16 * time.Second
	cfg.GeoWorkers = 4
	cfg.GeoReaders = 2
	cfg.GeoHorizon = 30 * time.Second
	cfg.GeoFailoverAt = 10 * time.Second
	cfg.GeoOutageDuration = 5 * time.Second
	cfg.GeoLagBounds = []time.Duration{500 * time.Millisecond, 2 * time.Second}
	return cfg
}

// Report is the outcome of one experiment.
type Report struct {
	ID      string
	Title   string
	Figures []metrics.Figure
	Notes   []string
	// Wall is the real time the run took, simulated or live, including any
	// time its data points spent waiting for a pool slot; virtual
	// durations are in the figures themselves.
	Wall time.Duration
	// Kernel is what the simulation kernel did to produce the report,
	// folded over the environments of its points; a point another report
	// also reads (pointcache.go) is counted in each. Zero for a live run.
	Kernel KernelStats
}

// KernelStats is the sim kernel's self-telemetry (sim.Env.Telemetry) for
// one report: events and switches summed over the run's environments, the
// most events pending at once among them. Wall / Events is the cost of one
// event on this machine; the counts themselves are deterministic.
type KernelStats struct {
	Events   uint64
	Switches uint64
	PeakHeap int
}

// Add folds in what env has done so far.
func (k *KernelStats) Add(env *sim.Env) {
	events, switches, peak := env.Telemetry()
	k.Events += events
	k.Switches += switches
	k.PeakHeap = max(k.PeakHeap, peak)
}

// Render formats the full report as text. The wall time is alone on the
// header line, so `grep -v "wall time"` strips everything that may differ
// between two runs of one program; the kernel counts, which may not,
// follow on a line of their own.
func (r *Report) Render() string {
	out := fmt.Sprintf("=== %s — %s (%v wall time) ===\n", r.ID, r.Title, r.Wall.Round(time.Millisecond))
	if k := r.Kernel; k.Events > 0 {
		out += fmt.Sprintf("kernel: %s events, %s switches, peak heap %d\n",
			groupDigits(k.Events), groupDigits(k.Switches), k.PeakHeap)
	}
	for _, fig := range r.Figures {
		out += "\n" + fig.Render()
	}
	for _, n := range r.Notes {
		out += "\nnote: " + n + "\n"
	}
	return out
}

// groupDigits formats n with a space between groups of three digits.
func groupDigits(n uint64) string {
	s := strconv.FormatUint(n, 10)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + " " + s[i:]
	}
	return s
}

// Experiment is a runnable suite entry.
type Experiment struct {
	ID    string // e.g. "fig4"
	Title string
	Run   func(s *Suite) *Report
}

// Suite binds a configuration to the experiment registry. It runs one
// experiment at a time; runs that overlap each take a Lane.
type Suite struct {
	cfg      Config
	traceLog *trace.Log
	// slots is the token pool: a data point holds one of its GOMAXPROCS
	// slots while its simulation is alive, which bounds memory however
	// sweeps, sub-suites and lanes nest.
	slots chan struct{}
	// ckpt, when non-nil, arms the next simulation environment with a
	// checkpoint capture or restore-verification hook (see checkpoint.go).
	ckpt *checkpointCtl
	// points is the run's shared points (pointcache.go).
	points *pointCache

	// What finished runs' points attached, in run then sweep order.
	samplers   []*telemetry.Sampler
	partitions []PartitionRecord
	lanes      []*Suite

	pointHook func(delta int) // tests count live points through it
}

// PartitionRecord is one cloud's partition-master activity summary,
// captured by experiments that exercise dynamic placement and exported
// with the telemetry stream (-statsfile).
type PartitionRecord struct {
	Kind           string `json:"kind"` // always "partition"
	Label          string `json:"label"`
	Splits         uint64 `json:"splits"`
	Merges         uint64 `json:"merges"`
	Migrations     uint64 `json:"migrations"`
	Redirects      uint64 `json:"redirects"`
	HandoffRejects uint64 `json:"handoff_rejects"`
	MapRefreshes   uint64 `json:"map_refreshes"`
	Servers        int    `json:"servers"`

	// Events is the structural timeline behind the counters; it feeds
	// assertions and trace cross-checks but not the JSONL export.
	Events []partitionmgr.Event `json:"-"`
}

// NewSuite returns a suite over cfg.
func NewSuite(cfg Config) *Suite {
	if len(cfg.Workers) == 0 {
		cfg.Workers = DefaultConfig().Workers
	}
	if cfg.VM.Name == "" {
		cfg.VM = model.Small
	}
	if cfg.Params.RTT == 0 {
		cfg.Params = model.Default()
	}
	s := &Suite{cfg: cfg, slots: make(chan struct{}, runtime.GOMAXPROCS(0)),
		points: &pointCache{m: map[pointKey]*sharedPoint{}}}
	if cfg.TraceOps {
		s.traceLog = trace.New(1 << 20)
	}
	return s
}

// Lane returns a suite over cfg for one of several runs that may overlap.
// It shares s's token pool, shared points and armed checkpoint, and what its
// runs attach reads back through s (Samplers, PartitionStats, WriteStats) in
// the order the lanes were taken, not the order the runs finish. Take every
// lane before starting any run.
func (s *Suite) Lane(cfg Config) *Suite {
	lane := NewSuite(cfg)
	lane.slots, lane.points, lane.ckpt, lane.pointHook = s.slots, s.points, s.ckpt, s.pointHook
	s.lanes = append(s.lanes, lane)
	return lane
}

// Width is how many data points (in cmd/azurebench: experiments, scenario
// files) a run on s keeps in flight. It is GOMAXPROCS — there is no other
// setting, and GOMAXPROCS=1 is the serial run — with two exceptions at
// width 1: Config.TraceOps, because the suite's one trace.Log has a record
// order and a half-eviction that are part of -tracefile's bytes, and an
// armed checkpoint, which arms "the next environment built". Telemetry is
// not one: a sampler belongs to its point.
func (s *Suite) Width() int {
	if s.traceLog != nil || s.ckpt != nil {
		return 1
	}
	return cap(s.slots)
}

// TraceLog returns the shared operation log (nil unless Config.TraceOps).
func (s *Suite) TraceLog() *trace.Log { return s.traceLog }

// Samplers returns every station sampler the experiments attached, in
// attachment order (empty unless Config.Telemetry).
func (s *Suite) Samplers() []*telemetry.Sampler {
	out := append([]*telemetry.Sampler(nil), s.samplers...)
	for _, lane := range s.lanes {
		out = append(out, lane.Samplers()...)
	}
	return out
}

// PartitionStats returns the partition-master records experiments
// collected, in collection order.
func (s *Suite) PartitionStats() []PartitionRecord {
	out := append([]PartitionRecord(nil), s.partitions...)
	for _, lane := range s.lanes {
		out = append(out, lane.PartitionStats()...)
	}
	return out
}

// partitionRecord summarises one cloud's partition-master outcome.
func partitionRecord(label string, c *cloud.Cloud) PartitionRecord {
	st := c.PartitionMgr().Stats()
	return PartitionRecord{
		Kind:           "partition",
		Label:          label,
		Splits:         st.Splits,
		Merges:         st.Merges,
		Migrations:     st.Migrations,
		Redirects:      st.Redirects,
		HandoffRejects: st.HandoffRejects,
		MapRefreshes:   st.MapRefreshes,
		Servers:        st.Servers,
		Events:         c.PartitionMgr().Events(),
	}
}

// WriteStats streams every collected telemetry sample as JSONL, one
// labelled record per line, followed by one record per partition-master
// summary — the writer behind azurebench's -statsfile.
func (s *Suite) WriteStats(w io.Writer) error {
	for _, sp := range s.Samplers() {
		if err := sp.WriteJSONL(w); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	for _, rec := range s.PartitionStats() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// Config returns the suite's configuration.
func (s *Suite) Config() Config { return s.cfg }

// registry is every experiment in presentation order.
var registry = []Experiment{
	{ID: "table1", Title: "VM configurations (Table I)", Run: (*Suite).RunTableI},
	{ID: "fig4", Title: "Blob storage upload/download (Figure 4)", Run: (*Suite).RunFig4},
	{ID: "fig5", Title: "Blob download one page/block at a time (Figure 5)", Run: (*Suite).RunFig5},
	{ID: "fig6", Title: "Queue benchmarks, separate queue per worker (Figure 6)", Run: (*Suite).RunFig6},
	{ID: "fig7", Title: "Queue benchmarks, single shared queue (Figure 7)", Run: (*Suite).RunFig7},
	{ID: "fig8", Title: "Table storage benchmarks (Figure 8)", Run: (*Suite).RunFig8},
	{ID: "fig9", Title: "Per-operation time, Queue vs Table (Figure 9)", Run: (*Suite).RunFig9},
	{ID: "throttle", Title: "Scalability-target throttling (ServerBusy + 1s retry)", Run: (*Suite).RunThrottle},
	{ID: "faults", Title: "Goodput under injected faults with resilient retries", Run: (*Suite).RunFaults},
	{ID: "hotspot", Title: "Zipfian hotspot: dynamic partition splitting vs static placement", Run: (*Suite).RunHotspot},
	{ID: "georepl", Title: "Geo-replicated account: RPO/RTO across a region-outage failover and RA-GRS staleness", Run: (*Suite).RunGeorepl},
	{ID: "barrier", Title: "Queue-message barrier cost (Algorithm 2)", Run: (*Suite).RunBarrier},
	{ID: "netmodel", Title: "DES vs analytical max-min fair-share cross-check", Run: (*Suite).RunNetModel},
	{ID: "ablation", Title: "Model ablations (replication, read fan-out, table servers, quirk)", Run: (*Suite).RunAblation},
	{ID: "cache", Title: "Caching service vs Blob storage for hot objects (future work)", Run: (*Suite).RunCache},
	{ID: "provision", Title: "Provisioning/deployment timings (future work)", Run: (*Suite).RunProvision},
}

// Experiments lists the registry in presentation order.
func Experiments() []Experiment { return append([]Experiment(nil), registry...) }

// Lookup finds an experiment by ID.
func Lookup(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// --- shared harness plumbing ---

// newCloud builds a fresh environment + cloud for one data point.
func (s *Suite) newCloud() (*sim.Env, *cloud.Cloud) {
	env := sim.NewEnv(s.cfg.Seed)
	c := cloud.New(env, s.cfg.Params)
	if s.traceLog != nil {
		c.SetTrace(s.traceLog)
	}
	s.armCheckpoint(env, func(reg *snapshot.Registry) {
		c.RegisterSnapshot(reg, "")
	})
	return env, c
}

// point is one data point of an experiment: a fresh environment and cloud
// on which an untimed setup process and then a fan-out of worker processes
// run to completion, the way each of the paper's algorithms is staged. It
// owns what it produces; the runner reads that back after the sweep.
type point struct {
	s         *Suite
	env       *sim.Env
	c         *cloud.Cloud
	results   []workerResult        // one per worker of the last fan-out
	st        map[string]phaseStats // what stats aggregated from them
	kernel    KernelStats           // of env, once retired
	sampler   *telemetry.Sampler    // nil unless telemetry is on and sample ran
	partition *PartitionRecord      // nil unless the runner took one
}

func (s *Suite) newPoint() *point { return s.pointOn(s.newCloud()) }

// pointOn starts a point on env (c is nil where the runner builds its own
// clouds); retire ends it.
func (s *Suite) pointOn(env *sim.Env, c *cloud.Cloud) *point {
	if s.pointHook != nil {
		s.pointHook(+1)
	}
	return &point{s: s, env: env, c: c}
}

// retire keeps the environment's kernel counts and drops the simulation,
// ending the processes it left parked: past its pool slot a point is only
// its results. A shared point arrives retired.
func (pt *point) retire() {
	if pt.env == nil {
		return
	}
	pt.kernel.Add(pt.env)
	pt.env.Close()
	pt.env, pt.c, pt.results = nil, nil, nil
	if pt.s.pointHook != nil {
		pt.s.pointHook(-1)
	}
}

// setup runs body to completion as the point's "setup" process, under a
// client of that name, before any worker exists; nothing in it is timed.
func (pt *point) setup(body func(p *sim.Proc, cl *cloud.Client)) {
	cl := pt.c.NewClient("setup", pt.s.cfg.VM)
	pt.env.Go("setup", func(p *sim.Proc) { body(p, cl) })
	pt.env.Run()
}

// stats aggregates the named phases over the last fan-out's workers into
// pt.st and returns the point.
func (pt *point) stats(phases ...string) *point {
	pt.st = map[string]phaseStats{}
	for _, ph := range phases {
		pt.st[ph] = aggregate(pt.results, ph)
	}
	return pt
}

// sample attaches a station sampler (labelled for export) to the point's
// environment.
func (pt *point) sample(stations func() []telemetry.Station, label string) {
	pt.sampler = pt.s.newSampler(pt.env, stations, label)
}

// newSampler starts a labelled station sampler on env; nil when telemetry
// is off, in which case no sampler process exists and the run is untouched.
func (s *Suite) newSampler(env *sim.Env, stations func() []telemetry.Station, label string) *telemetry.Sampler {
	if !s.cfg.Telemetry {
		return nil
	}
	sp := telemetry.NewSampler(label, s.cfg.TelemetryInterval)
	sp.Watch(env, stations)
	return sp
}

// sweep runs body(0) … body(n-1), one data point of the calling experiment
// each, on min(n, s.Width()) goroutines and returns the points by index;
// what else a runner measures on point i goes to slot i of its own slices.
// Every runner comes through here, and width 1 is the same code with one
// goroutine. Sweeps are sorted ascending, so indices are claimed from the
// top: the heaviest points start first and the tail is short. (Width 1
// claims from the bottom: -tracefile's record order, and index 0 as the
// checkpoint's subject.) A point holds a pool slot while body runs and is
// retired before giving it up. A panic in a body — must's "a
// persistent storage error is a bug" — stops further claims and, once the
// points in flight have drained, is re-raised on the caller.
func sweep(s *Suite, n int, body func(i int) *point) []*point {
	out, width := make([]*point, n), s.Width()
	var (
		wg      sync.WaitGroup
		claimed atomic.Int64
		failure atomic.Pointer[any]
	)
	runPoint := func(i int) {
		s.slots <- struct{}{}
		defer func() { <-s.slots }()
		defer func() {
			if r := recover(); r != nil {
				failure.CompareAndSwap(nil, &r)
			}
		}()
		out[i] = body(i)
		out[i].retire()
	}
	for range min(n, width) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for failure.Load() == nil {
				i := int(claimed.Add(1)) - 1
				if i >= n {
					return
				}
				if width > 1 {
					i = n - 1 - i
				}
				runPoint(i)
			}
		}()
	}
	wg.Wait()
	if r := failure.Load(); r != nil {
		panic(*r)
	}
	return out
}

// finish completes rep from the run's points, given in sweep order: their
// kernel counts fold into rep.Kernel, and the samplers and partition
// records they own join the suite's exports in that order.
func finish(s *Suite, rep *Report, pts []*point) *Report {
	for _, pt := range pts {
		rep.Kernel.Events += pt.kernel.Events
		rep.Kernel.Switches += pt.kernel.Switches
		rep.Kernel.PeakHeap = max(rep.Kernel.PeakHeap, pt.kernel.PeakHeap)
		if pt.sampler != nil {
			s.samplers = append(s.samplers, pt.sampler)
		}
		if pt.partition != nil {
			s.partitions = append(s.partitions, *pt.partition)
		}
	}
	return rep
}

// workerResult is one worker's timings, by phase.
type workerResult map[string]*phaseTime

// phaseTime is one worker's time in a phase: its span, summed over the
// pieces it was measured in, and its operations' durations as a running
// sum and count.
type phaseTime struct {
	span, opSum time.Duration
	ops         int
}

// phaseStats aggregates one phase across workers.
type phaseStats struct {
	mean     time.Duration // mean per-worker phase duration
	makespan time.Duration // max per-worker phase duration
	opSum    time.Duration // summed per-operation durations
	ops      int           // and their count
}

// opMean is the mean duration of one operation, 0 with none.
func (st phaseStats) opMean() time.Duration {
	if st.ops == 0 {
		return 0
	}
	return st.opSum / time.Duration(st.ops)
}

func aggregate(results []workerResult, phase string) phaseStats {
	var st phaseStats
	var sum time.Duration
	n := 0
	for _, wr := range results {
		if t, ok := wr[phase]; ok {
			sum += t.span
			n++
			st.makespan = max(st.makespan, t.span)
			st.opSum += t.opSum
			st.ops += t.ops
		}
	}
	if n > 0 {
		st.mean = sum / time.Duration(n)
	}
	return st
}

// split divides total work items across w workers: worker k gets
// [start, start+n).
func split(total, w, k int) (start, n int) {
	base := total / w
	extra := total % w
	start = k*base + min(k, extra)
	n = base
	if k < extra {
		n++
	}
	return start, n
}

// must panics on a storage error — experiment code treats one that is
// left after the client's retries as fatal (the simulation is
// deterministic, so this indicates a bug, not flakiness).
func must(what string, err error) {
	if err != nil {
		panic(fmt.Sprintf("%s: %v", what, err))
	}
}

// checkBusyOnly panics on any error other than ServerBusy.
func checkBusyOnly(what string, err error) {
	if err != nil && !storecommon.IsServerBusy(err) {
		panic(fmt.Sprintf("%s: %v", what, err))
	}
}

// sortedCopy returns a sorted copy of xs.
func sortedCopy(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// wallStopwatch starts measuring real elapsed time and returns a
// function reporting it. It feeds only Report.Wall — "how long did the
// simulation take on this machine" — which is the one deliberately
// wall-clock-dependent field in any report and never enters a figure.
func wallStopwatch() func() time.Duration {
	start := time.Now()
	return func() time.Duration {
		return time.Since(start)
	}
}
