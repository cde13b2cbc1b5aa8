// Command bench is the repository's benchmark: one run of one named
// workload, sized by -seconds and seeded by -seed, printing every metric
// by name with its unit after checking the outputs are correct. See
// README.md in this directory.
//
//	bash bench/run.sh --workload live-table-ycsb --seed 7 --seconds 13 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics — the end-to-end metrics of BENCHMARK.json without
// tracing, its per-layer metrics with --trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: sim-figures, sim-closedloop, live-table-ycsb, live-bagoftasks")
		seed     = flag.Int64("seed", 1, "seed every input of the workload is generated from")
		seconds  = flag.Float64("seconds", 13, "how long to measure: timed repetitions of the fixed work unit that fit")
		trace    = flag.Int("trace", 0, "1 records spans at the layer boundaries and runs the layer replays; prints the per-layer metrics")
		smoke    = flag.Bool("smoke", false, "tiny sizes, for tests of the harness itself")
		agree    = flag.Int("agree", 0, "run two interleaved sets of this many runs per workload and compare their medians (see agree.go)")
		ledger   = flag.String("ledger", "", "with -agree: also make one traced run per workload and write medians and quartiles to this file")
		commit   = flag.String("commit", "", "with -ledger: the commit the entry is recorded against")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if *agree > 0 {
		os.Exit(runAgree(*agree, *seconds, *seed, *ledger, *commit))
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "bench: -workload is required; one of:")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-16s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	o := runOptions{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0,
		sz: fullSizes(), outDir: "bench/out", replays: true,
	}
	if *smoke {
		o.sz = smokeSizes()
	}
	res, err := runWorkload(o, func(format string, args ...any) {
		fmt.Printf(format+"\n", args...)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
