// Command aztrace analyses JSONL trace exports (azurebench -tracefile,
// or a live emulator's trace log):
//
//	aztrace summary  run.jsonl            # forest + verify + stage table
//	aztrace critpath run.jsonl            # critical path of the slowest traces
//	aztrace tail     -pct 99 run.jsonl    # tail-latency attribution table
//	aztrace chrome   run.jsonl > t.json   # Chrome trace-event export
//	aztrace flame    run.jsonl > t.folded # collapsed stacks for flamegraph.pl
//	aztrace diff     old.jsonl new.jsonl  # stage-by-stage p50/p99 diff
//
// The chrome output loads in chrome://tracing or ui.perfetto.dev; the
// flame output feeds flamegraph.pl (or any collapsed-stack renderer).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"azurebench/internal/metrics"
	"azurebench/internal/trace"
	"azurebench/internal/tracegraph"
)

const usage = `usage: aztrace <command> [flags] <trace.jsonl> [trace2.jsonl]

commands:
  summary    forest statistics, invariant check, and stage profiles
  critpath   critical path of the slowest causal trees (-n, -pct)
  tail       tail-latency attribution table (-pct)
  chrome     Chrome trace-event JSON on stdout
  flame      collapsed stacks for flamegraph.pl on stdout
  diff       stage-by-stage p50/p99 diff of two traces`

// errUsage makes main print the usage text and exit 2.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, errUsage):
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	default:
		fmt.Fprintf(os.Stderr, "aztrace: %v\n", err)
		os.Exit(1)
	}
}

// run executes one subcommand. Everything it prints goes through one
// bufio.Writer on stdout, and a failed write comes back as the error of
// its Flush, so output that did not arrive is never an exit status 0.
func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	cmd := args[0]
	fs := flag.NewFlagSet("aztrace "+cmd, flag.ExitOnError)
	pct := fs.Float64("pct", 99, "tail percentile (tail, critpath)")
	topN := fs.Int("n", 3, "how many slowest traces to print (critpath)")
	fs.Parse(args[1:])

	want := 1
	if cmd == "diff" {
		want = 2
	}
	if fs.NArg() != want {
		return errUsage
	}
	tr, err := load(fs.Arg(0))
	if err != nil {
		return err
	}

	w := bufio.NewWriter(stdout)
	switch cmd {
	case "summary":
		summary(w, tr)
	case "critpath":
		critpath(w, tr, *topN, *pct)
	case "tail":
		fmt.Fprint(w, tracegraph.RenderTail(tr.TailAttribution(*pct), *pct))
	case "chrome":
		if err := tracegraph.WriteChrome(w, tr); err != nil {
			return err
		}
	case "flame":
		if err := tracegraph.WriteFlame(w, tr); err != nil {
			return err
		}
	case "diff":
		other, err := load(fs.Arg(1))
		if err != nil {
			return err
		}
		fmt.Fprint(w, tracegraph.RenderDiff(tracegraph.Diff(tr, other)))
	default:
		return errUsage
	}
	return w.Flush()
}

func load(path string) (*tracegraph.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	file, err := trace.ReadJSONL(f)
	if err != nil {
		return nil, err
	}
	tr := tracegraph.Trace(file)
	return &tr, nil
}

// summary prints the forest shape, the invariant check, and per-group
// stage percentiles.
func summary(w io.Writer, tr *tracegraph.Trace) {
	f := tr.Forest()
	rep := tr.Verify()
	fmt.Fprintf(w, "ops: %d  roots: %d  standalone: %d  orphans: %d\n",
		rep.Ops, len(f.Roots), rep.Standalone, rep.Orphans)
	if tr.Dropped > 0 {
		fmt.Fprintf(w, "eviction: %d ops dropped, window truncated before %v\n",
			tr.Dropped, tr.EvictedBefore)
	}
	if len(tr.Sections) > 0 {
		fmt.Fprintf(w, "experiments: %s\n", strings.Join(tr.Sections, ", "))
	}
	if rep.Complete() {
		fmt.Fprintln(w, "causal trees: complete (every non-root span resolves its one parent, which starts no later)")
	} else {
		fmt.Fprintf(w, "causal trees: INCOMPLETE (%d orphaned spans, %d span IDs used more than once, %d ops starting before their parent)\n",
			rep.Orphans, rep.DuplicateSpans, rep.EarlyChildren)
	}
	if rep.SpanMismatches > 0 {
		fmt.Fprintf(w, "stage partition: %d ops whose stages do not sum to their duration\n", rep.SpanMismatches)
	}
	fmt.Fprintln(w)
	for _, p := range tr.Profiles() {
		fmt.Fprintf(w, "%s/%s: n=%d p50=%v p99=%v\n", p.Service, p.Name, p.Count,
			p.Percentile(50).Round(time.Microsecond), p.Percentile(99).Round(time.Microsecond))
	}
}

// chainDuration is the summed duration of a root's critical path.
func chainDuration(root *tracegraph.Node) time.Duration {
	var sum time.Duration
	for _, step := range tracegraph.CriticalPath(root) {
		sum += step.Op.Duration
	}
	return sum
}

// critpath prints the critical path of the n slowest causal trees, plus
// the aggregate stage breakdown of every tree above the pct-th
// percentile chain duration.
func critpath(w io.Writer, tr *tracegraph.Trace, n int, pct float64) {
	f := tr.Forest()
	if len(f.Roots) == 0 {
		fmt.Fprintln(w, "(no operations)")
		return
	}
	type chain struct {
		root *tracegraph.Node
		dur  time.Duration
	}
	chains := make([]chain, 0, len(f.Roots))
	for _, r := range f.Roots {
		chains = append(chains, chain{r, chainDuration(r)})
	}
	sort.SliceStable(chains, func(i, j int) bool { return chains[i].dur > chains[j].dur })

	if n > len(chains) {
		n = len(chains)
	}
	fmt.Fprintf(w, "critical path of the %d slowest traces:\n", n)
	for i := 0; i < n; i++ {
		c := chains[i]
		fmt.Fprintf(w, "\n#%d  %v  trace=%s\n", i+1, c.dur.Round(time.Microsecond), c.root.Op.TraceID)
		for _, step := range tracegraph.CriticalPath(c.root) {
			var stages []string
			names := make([]string, 0, len(step.Stages))
			for st := range step.Stages {
				names = append(names, st)
			}
			sort.Strings(names)
			for _, st := range names {
				stages = append(stages, fmt.Sprintf("%s=%v", st, step.Stages[st].Round(time.Microsecond)))
			}
			status := ""
			if step.Op.Err != "" {
				status = "  err=" + step.Op.Err
			}
			fmt.Fprintf(w, "  %s %s/%s  %v%s  [%s]\n", step.Op.Client, step.Op.Service,
				step.Op.Name, step.Op.Duration.Round(time.Microsecond), status,
				strings.Join(stages, " "))
		}
	}

	// Aggregate stage attribution over the slow-chain population.
	durs := make([]time.Duration, len(chains))
	for i, c := range chains {
		durs[i] = c.dur
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	thresh := metrics.Percentile(durs, pct)
	agg := map[string]time.Duration{}
	var total time.Duration
	var slow int
	for _, c := range chains {
		if c.dur < thresh {
			continue
		}
		slow++
		for _, step := range tracegraph.CriticalPath(c.root) {
			for st, d := range step.Stages {
				agg[st] += d
				total += d
			}
		}
	}
	if total == 0 {
		return
	}
	fmt.Fprintf(w, "\nstage breakdown of the %d traces >= p%g (%v):\n", slow, pct, thresh.Round(time.Microsecond))
	names := make([]string, 0, len(agg))
	for st := range agg {
		names = append(names, st)
	}
	sort.Slice(names, func(i, j int) bool {
		if agg[names[i]] != agg[names[j]] {
			return agg[names[i]] > agg[names[j]]
		}
		return names[i] < names[j]
	})
	for _, st := range names {
		fmt.Fprintf(w, "  %-14s %10v  %5.1f%%\n", st, agg[st].Round(time.Microsecond),
			100*float64(agg[st])/float64(total))
	}
}
