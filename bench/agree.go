package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// The -agree mode answers one question before any change is judged by this
// benchmark: do two sets of runs of the same binary agree? It runs two
// interleaved sets of n untraced runs per workload, each run a child
// process with its own seed, and for every end-to-end metric prints both
// medians, their gap and each set's quartiles. It fails when a gap or a
// spread (first to third quartile over the median, set-up time excepted)
// exceeds the bound BENCHMARK.json gives that metric — the same test the
// driver applies. With -ledger it adds one traced run per workload and
// writes everything to a file: a ledger entry.

// benchmarkFile is the part of BENCHMARK.json the harness reads.
type benchmarkFile struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		return bf, fmt.Errorf("%s: %w", path, err)
	}
	return bf, nil
}

// childRun runs this binary once and parses the last line it prints.
func childRun(workload string, seed int64, seconds float64, trace int) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(exe, "-workload", workload, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed != 0 {
		return res, fmt.Errorf("%s seed %d: correct=%v failed=%d", workload, seed, res.Correct, res.Failed)
	}
	return res, nil
}

// setStats summarises one metric over one set of runs.
type setStats struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Spread float64   `json:"spread"`
	Values []float64 `json:"values"`
}

func summarise(xs []float64) setStats {
	q1, q2, q3 := quartiles(xs)
	return setStats{Median: q2, Q1: q1, Q3: q3, Spread: spread(xs), Values: xs}
}

// worse is by how much of a the value b is worse, given the direction.
func worse(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// ledgerEntry is what -ledger writes.
type ledgerEntry struct {
	Date      string                    `json:"date"`
	Commit    string                    `json:"commit"`
	GoVersion string                    `json:"go_version"`
	NumCPU    int                       `json:"nproc"`
	CPUModel  string                    `json:"cpu_model"`
	Seconds   float64                   `json:"run_seconds"`
	Runs      int                       `json:"untraced_runs_per_workload"`
	Workloads map[string]ledgerWorkload `json:"workloads"`
}

// ledgerWorkload is one workload's share of an entry: every end-to-end
// metric over all untraced runs, and the one traced run's per-layer metrics.
type ledgerWorkload struct {
	EndToEnd map[string]setStats `json:"end_to_end"`
	PerLayer metrics             `json:"per_layer"`
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func runAgree(n int, seconds float64, seed int64, ledger, commit string) int {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -agree runs from the root of the repository:", err)
		return 2
	}
	if n < 2 {
		fmt.Fprintln(os.Stderr, "bench: -agree needs at least 2 runs per set")
		return 2
	}
	// values[workload][metric][set] are the runs' values.
	values := map[string]map[string]*[2][]float64{}
	for _, w := range bf.Workloads {
		values[w.Name] = map[string]*[2][]float64{}
		for _, m := range bf.EndToEnd {
			values[w.Name][m.Name] = &[2][]float64{}
		}
	}
	// Interleave in time: run i of set A, then run i of set B, for each
	// workload in turn, so that drift of the machine falls on both sets.
	for i := 0; i < n; i++ {
		for _, w := range bf.Workloads {
			for set := 0; set < 2; set++ {
				s := seed + int64(set*1000+i)
				res, err := childRun(w.Name, s, seconds, 0)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for _, m := range bf.EndToEnd {
					got, ok := res.Metrics[m.Name]
					if !ok {
						fmt.Fprintf(os.Stderr, "bench: %s did not print %s\n", w.Name, m.Name)
						return 1
					}
					v := values[w.Name][m.Name]
					v[set] = append(v[set], got.Value)
				}
				fmt.Fprintf(os.Stderr, "run %d/%d %s set %c seed %d done\n", i+1, n, w.Name, 'A'+set, s)
			}
		}
	}

	entry := ledgerEntry{
		Date: time.Now().UTC().Format("2006-01-02"), Commit: commit,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
		Seconds: seconds, Runs: 2 * n,
		Workloads: map[string]ledgerWorkload{},
	}
	fmt.Printf("two interleaved sets of %d runs per workload, %g s each, %s, %d CPUs, %s\n\n",
		n, seconds, entry.CPUModel, entry.NumCPU, entry.GoVersion)
	fmt.Printf("%-16s %-10s %12s %12s %7s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "gap", "iqr A", "iqr B", "bound", "")
	failed := false
	for _, w := range bf.Workloads {
		we := ledgerWorkload{EndToEnd: map[string]setStats{}}
		for _, m := range bf.EndToEnd {
			v := values[w.Name][m.Name]
			a, b := summarise(v[0]), summarise(v[1])
			gap := worse(a.Median, b.Median, m.Better)
			verdict := "ok"
			if gap > m.Bound || worse(b.Median, a.Median, m.Better) > m.Bound {
				verdict = "MEDIANS DISAGREE"
			}
			if m.Name != "setup_s" && (a.Spread > m.Bound || b.Spread > m.Bound) {
				verdict = "TOO NOISY"
			}
			if verdict != "ok" {
				failed = true
			}
			fmt.Printf("%-16s %-10s %12.4f %12.4f %+6.1f%% %6.1f%% %6.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, a.Median, b.Median, gap*100, a.Spread*100, b.Spread*100, m.Bound*100, verdict)
			we.EndToEnd[m.Name] = summarise(append(append([]float64(nil), v[0]...), v[1]...))
		}
		entry.Workloads[w.Name] = we
	}
	fmt.Println("\ngap: by how much of median A median B is worse; iqr: first to third quartile over the median")

	if ledger != "" {
		for _, w := range bf.Workloads {
			res, err := childRun(w.Name, seed, seconds, 1)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			we := entry.Workloads[w.Name]
			we.PerLayer = res.Metrics
			entry.Workloads[w.Name] = we
			fmt.Fprintf(os.Stderr, "traced run %s done\n", w.Name)
		}
		raw, err := json.MarshalIndent(entry, "", "  ")
		if err == nil {
			err = os.WriteFile(ledger, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: writing ledger:", err)
			return 1
		}
		fmt.Printf("ledger entry written to %s\n", ledger)
	}
	if failed {
		return 1
	}
	return 0
}
