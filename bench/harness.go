package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"azurebench/internal/core"
)

// clients is the closed-loop client count of every workload: both kinds of
// caller (the paper's worker roles, a researcher at the CLI) wait for each
// reply before sending the next request. It is also the GOMAXPROCS the
// harness pins and the connection limit of the HTTP transport.
const clients = 2

// sizes fixes the work unit of each workload. One run is setups fresh
// set-ups (each ending in a short untimed warm-up) followed by as many
// timed repetitions of the work unit as fit into -seconds. The warm-up is
// the same work at a reduced count: enough to open the connections, grow
// the heap and touch every code path, so that anything built lazily on
// first use is paid inside setup_s and not inside a timed repetition.
type sizes struct {
	setups    int // fresh set-ups per run; setup_s is their median
	minReps   int // timed repetitions even when -seconds is short
	refDivide int // shrinks the reference kernel; 1 at full size

	figures     core.Config // sim-figures: configuration of the 16 experiments
	figuresWarm core.Config

	virtual     time.Duration // sim-closedloop: simulated length of the phase
	virtualWarm time.Duration

	records    int // live-table-ycsb: preloaded entities
	partitions int
	valueBytes int
	pointOps   int // point phase, both clients together
	scanOps    int // scan phase, both clients together
	pointWarm  int
	scanWarm   int

	tasks     int // live-bagoftasks: tasks per repetition
	tasksWarm int
	taskBytes int
	blobBytes int
	inputs    int // distinct input blobs
	outputs   int // output blob names in rotation
}

func fullSizes() sizes {
	warm := core.QuickConfig()
	warm.Workers = []int{1, 2, 4, 8, 16}
	warm.QueueMessages = 1000
	return sizes{
		setups: 3, minReps: 3, refDivide: 1,
		figures: core.QuickConfig(), figuresWarm: warm,
		virtual: 60 * time.Second, virtualWarm: 60 * time.Second,
		records: 10000, partitions: 16, valueBytes: 1024,
		pointOps: 20000, scanOps: 700, pointWarm: 10000, scanWarm: 350,
		tasks: 8000, tasksWarm: 3000, taskBytes: 512, blobBytes: 64 << 10, inputs: 64, outputs: 256,
	}
}

// smokeSizes keeps every code path and shrinks every count, so the four
// workloads together finish in a few seconds under go test.
func smokeSizes() sizes {
	fig := core.QuickConfig()
	fig.Workers = []int{1, 4}
	fig.BlobMB = 4
	fig.ChunkReads = 4
	fig.QueueMessages = 100
	fig.QueueSizesKB = []int{4}
	fig.SharedRounds = 20
	fig.ThinkTimes = []time.Duration{time.Second}
	fig.TableEntities = 10
	fig.TableSizesKB = []int{4}
	fig.FaultRounds = 40
	fig.HotspotWorkers = 8
	fig.HotspotKeys = 16
	fig.HotspotHorizon = 2 * time.Second
	fig.GeoHorizon = 6 * time.Second
	fig.GeoFailoverAt = 2 * time.Second
	fig.GeoOutageDuration = time.Second
	return sizes{
		setups: 2, minReps: 2, refDivide: 25,
		figures: fig, figuresWarm: fig,
		virtual: 2 * time.Second, virtualWarm: time.Second,
		records: 400, partitions: 4, valueBytes: 256,
		pointOps: 2400, scanOps: 60, pointWarm: 600, scanWarm: 20,
		tasks: 200, tasksWarm: 50, taskBytes: 128, blobBytes: 4 << 10, inputs: 8, outputs: 16,
	}
}

// repResult is what one repetition reports to the harness.
type repResult struct {
	wall      time.Duration // whole repetition, pauses excluded
	ops       int           // operations of the primary phase
	opsWall   time.Duration // wall time of the primary phase
	attempted int           // every operation issued, all phases
	failed    int
}

// workload is one benchmark workload. The harness calls setup (which ends
// with the warm-up repetition), then rep repeatedly, then finish.
type workload interface {
	// setup builds the whole stack from nothing, generates the inputs
	// from the seed and runs the untimed warm-up.
	setup(seed int64, sz sizes, tr *tracer) error
	// rep runs one repetition of the work unit, recording spans when
	// traced. A workload whose repetition is long calls pause between
	// two pieces of work, off the clock: the harness times the
	// reference kernel there.
	rep(traced bool, pause func()) (repResult, error)
	// finish checks the outputs of the whole run, adds the workload's
	// own numbers (client-observed latencies, in-situ layer metrics)
	// and says what was checked.
	finish(m metrics) (checked string, err error)
	// describe is the one-line header: sizes and input hashes.
	describe() string
	close()
}

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	name string
	why  string
	make func() workload
}

var workloads = []workloadDef{
	{"sim-figures", "regenerates all 16 paper tables/figures at quick scale; deep-queue experiments (fig6, fig9) dominate, so engine-index work shows and kernel work shows partly",
		func() workload { return &simFigures{} }},
	{"sim-closedloop", "one declarative scenario, 64 simulated clients on a small table: isolates sim kernel, cloud.Client pipeline and scenario dispatch; engine work must show no change",
		func() workload { return &simClosedLoop{} }},
	{"live-table-ycsb", "1 KiB entities over HTTP, 50/50 get/replace then short scans: fixed per-request cost of sdk, net/http, rest and odata is almost all of an operation",
		func() workload { return &liveTable{} }},
	{"live-bagoftasks", "the paper's task-pool framework over HTTP with 64 KiB blobs and a queue 8 000 deep: queue depth cost and blob copy cost dominate, per-request overhead is minor",
		func() workload { return &liveBag{} }},
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{v, unit} }

// result is the last line a run prints.
type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// procSample is the process-wide counters the proc.* metrics difference.
type procSample struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcs     uint32
	pause   time.Duration
}

func (a *procSample) add(b procSample) {
	a.cpu += b.cpu
	a.mallocs += b.mallocs
	a.bytes += b.bytes
	a.gcs += b.gcs
	a.pause += b.pause
}

func (a procSample) sub(b procSample) procSample {
	return procSample{a.cpu - b.cpu, a.mallocs - b.mallocs, a.bytes - b.bytes, a.gcs - b.gcs, a.pause - b.pause}
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
		pause:   time.Duration(ms.PauseTotalNs),
	}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runOptions is one invocation of a workload.
type runOptions struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	sz       sizes
	outDir   string // where a traced run writes its span file
	replays  bool   // run the layer replays after a traced run
}

// pacer runs the reference kernel between the timed pieces of a run
// (reference.go). The kernel's own CPU time and allocations are kept out
// of the proc.* metrics.
type pacer struct {
	ref     *reference
	kernelS []float64  // kernel times since the last call of speed, seconds
	used    procSample // what the kernel itself consumed
}

// sample times the kernel once and collects its garbage, so that the work
// timed next starts from the heap it would have had without the kernel.
func (p *pacer) sample() {
	before := sampleProc()
	d := p.ref.run()
	runtime.GC()
	p.used.add(sampleProc().sub(before))
	p.kernelS = append(p.kernelS, d.Seconds())
}

// speed returns this machine's speed against the reference machine over
// the samples taken since the last call (above 1: this machine is faster)
// and forgets them.
func (p *pacer) speed() float64 {
	k := median(p.kernelS)
	p.kernelS = p.kernelS[:0]
	return referenceNominal.Seconds() / k
}

// runWorkload performs one run and returns the line to print. Progress and
// every measured number go to log as text on the way.
func runWorkload(o runOptions, log func(format string, args ...any)) (result, error) {
	def, ok := lookupWorkload(o.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.workload)
	}
	if runtime.NumCPU() < clients {
		return result{}, fmt.Errorf("need at least %d CPUs, have %d: the two closed-loop clients would time each other's scheduling", clients, runtime.NumCPU())
	}
	runtime.GOMAXPROCS(clients)

	pace := &pacer{ref: newReference(o.sz.refDivide)}

	tr := &tracer{clk: clock{time.Now()}, on: o.traced}

	// Set-up, several times over: each builds the whole stack from
	// nothing and ends with the warm-up; the last one is kept. The
	// reference kernel runs before, between and after.
	var w workload
	var setupS []float64
	pace.sample()
	for i := 0; i < o.sz.setups; i++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		t0 := time.Now()
		w = def.make()
		if err := w.setup(o.seed, o.sz, tr); err != nil {
			w.close()
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		pace.sample()
	}
	defer w.close()
	log("workload %s seed %d: %s", o.workload, o.seed, w.describe())
	log("set-up x%d: %s s; reference kernel %s s", len(setupS), fmtFloats(setupS), fmtFloats(pace.kernelS))
	setupSpeed := pace.speed()

	// Timed repetitions of the fixed unit, for as long as the next one
	// is expected to end within -seconds, the reference kernel before,
	// between and after them and wherever a repetition pauses.
	res := result{Correct: true, Metrics: metrics{}}
	var repS, opsPerS, tracedS, plainS []float64
	var total procSample
	measured := 0.0
	pace.sample()
	for r := 0; r < o.sz.minReps || measured+measured/float64(r) <= o.seconds; r++ {
		// A traced run alternates traced and plain repetitions, so the
		// tracing overhead is measured within one process.
		traced := o.traced && r%2 == 0
		runtime.GC()
		before, kernelUse := sampleProc(), pace.used
		rr, err := w.rep(traced, pace.sample)
		used := sampleProc().sub(before).sub(pace.used.sub(kernelUse))
		if err != nil {
			return result{}, fmt.Errorf("repetition %d: %w", r+1, err)
		}
		pace.sample()
		res.Attempted += rr.attempted
		res.Failed += rr.failed
		measured += rr.wall.Seconds()
		repS = append(repS, rr.wall.Seconds())
		opsPerS = append(opsPerS, float64(rr.ops)/rr.opsWall.Seconds())
		if traced {
			tracedS = append(tracedS, rr.wall.Seconds())
		} else {
			plainS = append(plainS, rr.wall.Seconds())
		}
		total.add(used)
		tag := ""
		if traced {
			tag = " (traced)"
		}
		log("rep %d%s: %.4f s, %.1f ops/s", r+1, tag, rr.wall.Seconds(), opsPerS[r])
	}
	reps := len(repS)
	log("reference kernel during the repetitions: %s s", fmtFloats(pace.kernelS))
	kernelMS := median(pace.kernelS) * 1e3
	repSpeed := pace.speed()
	layer := metrics{}
	checked, err := w.finish(layer)
	if err != nil {
		res.Correct = false
		log("FAILED: %v", err)
	} else {
		log("checked: %s", checked)
	}
	if res.Failed > 0 {
		res.Correct = false
	}

	// End-to-end times are reported as on a machine where the reference
	// kernel takes referenceNominal (reference.go).
	e2e := metrics{}
	e2e.set("setup_s", median(setupS)*setupSpeed, "s")
	e2e.set("rep_s", median(repS)*repSpeed, "s")
	e2e.set("ops_per_s", median(opsPerS)/repSpeed, "ops/s")
	log("measured medians: set-up %.4f s, repetition %.4f s, %.1f ops/s; machine speed against the reference %.3f during set-up, %.3f during the repetitions",
		median(setupS), median(repS), median(opsPerS), setupSpeed, repSpeed)

	n := float64(reps)
	layer.set("proc.ref_kernel_ms", kernelMS, "ms")
	layer.set("proc.cpu_s_per_rep", total.cpu.Seconds()/n, "s")
	layer.set("proc.allocs_per_op", float64(total.mallocs)/float64(res.Attempted), "count")
	layer.set("proc.alloc_bytes_per_op", float64(total.bytes)/float64(res.Attempted), "B")
	layer.set("proc.gc_cycles_per_rep", float64(total.gcs)/n, "count")
	layer.set("proc.gc_pause_ms_per_rep", float64(total.pause.Microseconds())/1e3/n, "ms")
	layer.set("proc.peak_rss_mb", peakRSSMB(), "MB")
	overhead := 0.0
	if len(tracedS) > 0 && len(plainS) > 0 {
		overhead = (median(tracedS)/median(plainS) - 1) * 100
	}
	layer.set("proc.trace_overhead_pct", overhead, "%")

	if o.traced {
		if o.replays {
			if err := runReplays(o.seed, layer, log); err != nil {
				return result{}, err
			}
		}
		deriveLayerMetrics(o.workload, layer)
		if o.outDir != "" {
			path := filepath.Join(o.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
			if err := os.MkdirAll(o.outDir, 0o755); err != nil {
				return result{}, err
			}
			if err := writeSpans(path, tr.bufs); err != nil {
				return result{}, fmt.Errorf("writing spans: %w", err)
			}
			log("spans of the last traced repetition: %s", path)
		}
	}

	printMetrics(log, "end-to-end", e2e, fmt.Sprintf("at reference speed, median of %d repetitions and %d set-ups", reps, len(setupS)))
	printMetrics(log, "per-layer", layer, "as measured")
	log("attempted %d, failed %d, correct %v", res.Attempted, res.Failed, res.Correct)

	// The last line carries exactly the metrics BENCHMARK.json lists.
	names, from := endToEnd, e2e
	if o.traced {
		names, from = perLayer, layer
	}
	for _, n := range names {
		v, ok := from[n[0]]
		if !ok {
			v = metric{0, n[1]} // not on this workload's path
		}
		res.Metrics[n[0]] = v
	}
	return res, nil
}

func printMetrics(log func(string, ...any), title string, m metrics, note string) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	if note != "" {
		note = " (" + note + ")"
	}
	log("-- %s metrics%s", title, note)
	for _, k := range names {
		log("%-36s %14.4f %s", k, m[k].Value, m[k].Unit)
	}
}

func fmtFloats(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.3f", x)
	}
	return s
}

func init() {
	// The default GC settings are what cmd/azurebench and cmd/azurestore
	// ship with; make an inherited GOGC/GOMEMLIMIT not change a number.
	debug.SetGCPercent(100)
	debug.SetMemoryLimit(1 << 62)
}
