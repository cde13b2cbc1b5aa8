// Command azurebench regenerates the paper's tables and figures on the
// simulated Azure cloud.
//
// Usage:
//
//	azurebench -experiment all            # every table/figure, paper scale
//	azurebench -experiment fig4,fig6      # a subset
//	azurebench -quick                     # ~1/10-scale smoke run
//	azurebench -list                      # enumerate experiments
//	azurebench -experiment fig8 -csv      # additionally emit CSV blocks
//	azurebench -workers 1,8,64            # override the worker sweep
//	azurebench -trace                     # per-op + per-stage time attribution
//	azurebench -tracefile trace.jsonl     # export every traced op as JSONL
//	azurebench -telemetry                 # station timelines under the figures
//	azurebench -statsfile stats.jsonl     # export telemetry samples as JSONL
//	azurebench -scenario flashcrowd.yaml  # run a declarative scenario file
//	azurebench -scenario-dir examples/scenarios -quick   # run a whole library
//	azurebench -scenario ycsb-b.yaml -live http://127.0.0.1:10000   # same spec, over HTTP
//	azurebench -digest                    # print each report's content digest
//	azurebench -quick -cpuprofile cpu.pprof -memprofile mem.pprof   # profile the run itself
//
// Scenario runs exit non-zero when any SLO assertion fails, so a scenario
// file doubles as a CI gate. With -live the workload-driver scenarios run
// in wall-clock time against a storage emulator (cmd/azurestore) instead
// of the simulated cloud; everything else in this command is simulation.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"azurebench/internal/core"
	"azurebench/internal/liverun"
	"azurebench/internal/scenario"
	"azurebench/internal/trace"
)

func main() {
	var (
		experiment  = flag.String("experiment", "all", "experiment id(s), comma separated, or 'all'")
		quick       = flag.Bool("quick", false, "run the reduced-scale configuration")
		listOnly    = flag.Bool("list", false, "list experiments and exit")
		csv         = flag.Bool("csv", false, "also print CSV data blocks")
		seed        = flag.Int64("seed", 0, "override simulation seed (0 = default)")
		workers     = flag.String("workers", "", "override worker sweep, e.g. 1,8,64")
		traceOps    = flag.Bool("trace", false, "print per-operation and per-stage trace summaries after each experiment")
		traceFile   = flag.String("tracefile", "", "write every traced operation as JSONL to this file (implies -trace collection)")
		telemetry   = flag.Bool("telemetry", false, "sample station telemetry and render timelines with the figures")
		statsFile   = flag.String("statsfile", "", "write telemetry samples as JSONL to this file (implies -telemetry)")
		outDir      = flag.String("o", "", "also write per-experiment .txt and .csv files into this directory")
		scenarios   = flag.String("scenario", "", "scenario file(s) to run, comma separated (see examples/scenarios)")
		scenarioDir = flag.String("scenario-dir", "", "run every *.yaml scenario in this directory, sorted by name")
		live        = flag.String("live", "", "run -scenario/-scenario-dir workloads against the storage emulator at this URL (e.g. http://127.0.0.1:10000) instead of the simulated cloud")
		digest      = flag.Bool("digest", false, "print each report's content digest (sha256 over figure CSVs)")
		ckptAt      = flag.String("checkpoint-at", "", "capture a full simulation snapshot at this virtual time (requires -checkpoint-file and exactly one -experiment id)")
		ckptFile    = flag.String("checkpoint-file", "", "snapshot destination for -checkpoint-at")
		restoreFrom = flag.String("restore", "", "replay the experiment checkpointed in this snapshot file, verifying state at the checkpoint instant (ignores config flags: the snapshot embeds its configuration)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile of this run to the file (go tool pprof format)")
		memProfile  = flag.String("memprofile", "", "write a heap profile to the file when the run ends")
	)
	flag.Parse()

	if *listOnly {
		for _, e := range core.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := core.DefaultConfig()
	if *quick {
		cfg = core.QuickConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.TraceOps = *traceOps || *traceFile != ""
	cfg.Telemetry = *telemetry || *statsFile != ""
	if *workers != "" {
		sweep, err := parseInts(*workers)
		if err != nil {
			fatalf("bad -workers: %v", err)
		}
		cfg.Workers = sweep
	}

	out := &output{
		csv:     *csv,
		digest:  *digest,
		trace:   *traceOps,
		outDir:  *outDir,
		verdict: true,
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fatalf("creating -tracefile: %v", err)
		}
		out.traceOut = f
	}
	if *statsFile != "" {
		f, err := os.Create(*statsFile)
		if err != nil {
			fatalf("creating -statsfile: %v", err)
		}
		out.statsOut = f
	}

	var checkpointAt time.Duration
	if *ckptAt != "" {
		at, err := time.ParseDuration(*ckptAt)
		if err != nil || at <= 0 {
			fatalf("bad -checkpoint-at: %q (want a positive virtual duration like 6s)", *ckptAt)
		}
		if *ckptFile == "" {
			fatalf("-checkpoint-at requires -checkpoint-file")
		}
		if *scenarios != "" || *scenarioDir != "" {
			fatalf("-checkpoint-at applies to experiments; scenarios checkpoint via their checkpoint: stanza")
		}
		checkpointAt = at
	}

	if *live != "" && (*scenarios == "" && *scenarioDir == "" || cfg.TraceOps || cfg.Telemetry) {
		fatalf("-live runs scenarios (-scenario, -scenario-dir) and takes no simulation output flags (-trace, -tracefile, -telemetry, -statsfile)")
	}

	stopProfiles := startProfiles(*cpuProfile, *memProfile)
	switch {
	case *restoreFrom != "":
		if *scenarios != "" || *scenarioDir != "" || checkpointAt != 0 {
			fatalf("-restore runs a snapshot on its own (it embeds its experiment and configuration)")
		}
		rep, suite, err := core.Restore(*restoreFrom)
		if err != nil {
			fatalf("%v", err)
		}
		out.emit(suite, rep, "")
		out.stats(suite)
	case *scenarios != "" || *scenarioDir != "":
		paths := scenarioPaths(*scenarios, *scenarioDir)
		runScenarios(cfg, paths, *live, scenario.Options{Quick: *quick}, out)
	default:
		runExperiments(cfg, *experiment, out, checkpointAt, *ckptFile)
	}

	if out.traceOut != nil {
		if err := out.traceOut.Close(); err != nil {
			fatalf("closing -tracefile: %v", err)
		}
	}
	if out.statsOut != nil {
		if err := out.statsOut.Close(); err != nil {
			fatalf("closing -statsfile: %v", err)
		}
	}
	stopProfiles()
	if !out.verdict {
		os.Exit(1)
	}
}

// startProfiles starts the CPU profile, if asked for, and returns the
// function that ends the run's profiling: it stops the CPU profile and
// writes the heap profile. Both work in simulated and -live mode; a run
// that dies in fatalf leaves no profile.
func startProfiles(cpuPath, memPath string) (stop func()) {
	var cpu *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			fatalf("creating -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("starting -cpuprofile: %v", err)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fatalf("closing -cpuprofile: %v", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fatalf("creating -memprofile: %v", err)
			}
			runtime.GC() // so the profile shows what is live, not what is garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("writing -memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				fatalf("closing -memprofile: %v", err)
			}
		}
	}
}

// scenarioPaths expands -scenario and -scenario-dir into a file list.
func scenarioPaths(list, dir string) []string {
	var paths []string
	if list != "" {
		for _, p := range strings.Split(list, ",") {
			p = strings.TrimSpace(p)
			if p == "" {
				fatalf("bad -scenario: empty path in %q", list)
			}
			paths = append(paths, p)
		}
	}
	if dir != "" {
		glob, err := filepath.Glob(filepath.Join(dir, "*.yaml"))
		if err != nil || len(glob) == 0 {
			fatalf("-scenario-dir %s: no *.yaml scenarios found", dir)
		}
		sort.Strings(glob)
		paths = append(paths, glob...)
	}
	return paths
}

// inOrder calls run(0) … run(n-1), started in index order with at most
// width of them in flight, and emit(i) as soon as run(i) and every earlier
// run have returned: what emit prints is what a serial loop would print,
// whatever the width. It returns once every run has.
func inOrder(n, width int, run, emit func(i int)) {
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	go func() {
		inFlight := make(chan struct{}, width)
		for i := range done {
			inFlight <- struct{}{}
			go func() {
				defer close(done[i])
				run(i)
				<-inFlight
			}()
		}
	}()
	for i := range done {
		<-done[i]
		emit(i)
	}
}

// runExperiments runs registered experiments, each on its own lane of one
// suite: they overlap up to the suite's width, their data points share its
// token pool, and they are emitted in the order given. All ids are
// validated before anything runs, so a typo late in the list cannot waste
// a long run. checkpointAt/checkpointFile, when set, arm a mid-run
// snapshot capture and require exactly one experiment id.
func runExperiments(cfg core.Config, list string, out *output, checkpointAt time.Duration, checkpointFile string) {
	var exps []core.Experiment
	if list == "all" {
		exps = core.Experiments()
	} else {
		var unknown []string
		for _, id := range strings.Split(list, ",") {
			id = strings.TrimSpace(id)
			if id == "" {
				fatalf("bad -experiment: empty id in %q", list)
			}
			exp, ok := core.Lookup(id)
			if !ok {
				unknown = append(unknown, strconv.Quote(id))
			}
			exps = append(exps, exp)
		}
		if len(unknown) > 0 {
			var valid []string
			for _, e := range core.Experiments() {
				valid = append(valid, e.ID)
			}
			fatalf("unknown experiment(s) %s (valid: %s)",
				strings.Join(unknown, ", "), strings.Join(valid, ", "))
		}
	}
	suite := core.NewSuite(cfg)
	if checkpointAt > 0 {
		if len(exps) != 1 || list == "all" {
			fatalf("-checkpoint-at requires exactly one -experiment id (got %q)", list)
		}
		if err := suite.Checkpoint(exps[0].ID, checkpointAt, checkpointFile); err != nil {
			fatalf("%v", err)
		}
	}
	lanes := make([]*core.Suite, len(exps))
	for i := range lanes {
		lanes[i] = suite.Lane(cfg)
	}
	reps := make([]*core.Report, len(exps))
	var sum time.Duration
	elapsed := core.WallTimer()
	inOrder(len(exps), suite.Width(),
		func(i int) { reps[i] = exps[i].Run(lanes[i]) },
		func(i int) {
			out.emit(lanes[i], reps[i], "")
			sum += reps[i].Wall
		})
	// The run's own speed-up, on stderr so stdout stays byte-stable.
	fmt.Fprintf(os.Stderr, "regenerated %d experiments in %v at width %d; Σ experiment wall %v\n",
		len(exps), elapsed().Round(100*time.Millisecond), suite.Width(), sum.Round(100*time.Millisecond))
	if checkpointAt > 0 {
		if err := suite.CheckpointOutcome(); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("checkpoint written: %s (virtual %v)\n", checkpointFile, checkpointAt)
	}
	out.stats(suite)
}

// runScenarios loads and runs each scenario on its own suite (a scenario
// may patch the configuration, and isolation keeps digests comparable to
// single-experiment runs) or, with a live endpoint, against that emulator.
// Simulated files are lanes of one suite and overlap as experiments do;
// live runs, which share the emulator and the wall clock, and traced runs
// go one at a time. Reports, SLO verdicts and -statsfile records come out
// in path order either way.
func runScenarios(base core.Config, paths []string, live string, opts scenario.Options, out *output) {
	root := core.NewSuite(base)
	width := root.Width()
	if live != "" {
		width = 1
	}
	// Load everything first: a broken file fails fast, before any run.
	specs := make([]*scenario.Spec, len(paths))
	suites := make([]*core.Suite, len(paths)) // a live run uses only its seed
	for i, path := range paths {
		sp, err := scenario.Load(path)
		if err == nil && live != "" {
			err = sp.CheckLive()
		}
		if err != nil {
			fatalf("%v", err)
		}
		cfg := base
		sp.Apply(&cfg)
		specs[i], suites[i] = sp, root.Lane(cfg)
	}
	results := make([]*scenario.Result, len(specs))
	errs := make([]error, len(specs))
	inOrder(len(specs), width,
		func(i int) {
			if live != "" {
				results[i], errs[i] = liverun.Run(live, specs[i], suites[i].Config().Seed, opts)
			} else {
				results[i], errs[i] = scenario.Run(suites[i], specs[i], opts)
			}
		},
		func(i int) {
			if errs[i] != nil {
				fatalf("%s: %v", paths[i], errs[i])
			}
			res := results[i]
			verdict := ""
			if len(res.SLO) > 0 {
				verdict = res.RenderSLO()
				if !res.Passed() {
					out.verdict = false
				}
			}
			out.emit(suites[i], res.Report, verdict)
			out.stats(suites[i])
		})
}

// output is the shared per-report sink: rendering, SLO verdicts, digests,
// trace summaries/JSONL, CSV blocks and -o exports all live here so
// experiment and scenario runs emit identically-shaped artifacts.
type output struct {
	csv      bool
	digest   bool
	trace    bool
	outDir   string
	traceOut *os.File
	statsOut *os.File
	verdict  bool // false once any scenario SLO fails
}

func (o *output) emit(suite *core.Suite, rep *core.Report, verdict string) {
	fmt.Println(rep.Render())
	if verdict != "" {
		fmt.Print(verdict)
	}
	if o.digest {
		fmt.Printf("digest %s %s\n", rep.ID, rep.CSVDigest())
	}
	if o.outDir != "" {
		if err := writeReport(o.outDir, rep); err != nil {
			fatalf("writing %s report: %v", rep.ID, err)
		}
	}
	if log := suite.TraceLog(); log != nil {
		if o.trace {
			fmt.Printf("--- operation trace: %s ---\n%s\n", rep.ID, log.Summary())
			fmt.Printf("--- stage attribution: %s ---\n%s\n", rep.ID, log.StageSummary())
		}
		if o.traceOut != nil {
			// Mark each report's section so one JSONL file holds the whole
			// run.
			err := trace.WriteSection(o.traceOut, rep.ID)
			if err == nil {
				err = log.WriteJSONL(o.traceOut)
			}
			if err != nil {
				fatalf("writing -tracefile: %v", err)
			}
		}
		log.Reset()
	}
	if o.csv {
		for _, fig := range rep.Figures {
			fmt.Printf("--- csv: %s ---\n%s\n", fig.Title, fig.CSV())
		}
	}
}

// stats appends the suite's telemetry samples to -statsfile (scenario
// suites are per-file, so records accumulate in run order).
func (o *output) stats(suite *core.Suite) {
	if o.statsOut == nil {
		return
	}
	if err := suite.WriteStats(o.statsOut); err != nil {
		fatalf("writing -statsfile: %v", err)
	}
}

// writeReport writes the rendered report and one CSV per figure.
func writeReport(dir string, rep *core.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, rep.ID+".txt"), []byte(rep.Render()), 0o644); err != nil {
		return err
	}
	for i, fig := range rep.Figures {
		name := fmt.Sprintf("%s-%d.csv", rep.ID, i+1)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(fig.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("worker count %d < 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "azurebench: "+format+"\n", args...)
	os.Exit(1)
}
