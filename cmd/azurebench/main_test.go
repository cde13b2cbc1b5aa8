package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"azurebench/internal/core"
	"azurebench/internal/scenario"
	"azurebench/internal/trace"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 8,64")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 8, 64}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestParseIntsErrors(t *testing.T) {
	for _, bad := range []string{"", "x", "1,,2", "0", "-3", "1,x"} {
		if _, err := parseInts(bad); err == nil {
			t.Errorf("parseInts(%q) accepted", bad)
		}
	}
}

// TestInOrder: whatever order the runs finish in — here the reverse of
// the one they start in, as far as the width allows — emit sees 0, 1, 2, …,
// each only after its own run, and no more than width runs overlap.
func TestInOrder(t *testing.T) {
	for _, width := range []int{1, 3, 8} {
		const n = 8
		var inFlight atomic.Int32
		finished := make([]atomic.Bool, n)
		release := make([]chan struct{}, n)
		for i := range release {
			release[i] = make(chan struct{}, 1)
		}
		var emitted []int
		inOrder(n, width, func(i int) {
			if now := inFlight.Add(1); int(now) > width {
				t.Errorf("width %d: %d runs in flight", width, now)
			}
			// Wait for the run after this one unless it cannot have started.
			if (i+1)%width != 0 && i+1 < n {
				<-release[i]
			}
			if i > 0 {
				release[i-1] <- struct{}{}
			}
			finished[i].Store(true)
			inFlight.Add(-1)
		}, func(i int) {
			if !finished[i].Load() {
				t.Errorf("width %d: emit(%d) before run(%d) returned", width, i, i)
			}
			emitted = append(emitted, i)
		})
		for i, got := range emitted {
			if got != i {
				t.Fatalf("width %d: emitted %v", width, emitted)
			}
		}
		if len(emitted) != n {
			t.Errorf("width %d: %d of %d emitted", width, len(emitted), n)
		}
	}
}

func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop := startProfiles(cpu, mem)
	stop()
	for _, path := range []string{cpu, mem} {
		if info, err := os.Stat(path); err != nil || info.Size() == 0 {
			t.Errorf("%s: %v, want a non-empty profile", filepath.Base(path), err)
		}
	}
	startProfiles("", "")() // no flags, no files, no panic
}

// TestTracefileSectionNamesRoundTrip: a scenario's name becomes its
// section marker in the -tracefile, and whatever bytes the YAML put in it
// — a control byte, a quote, an angle bracket — must come back from the
// reader unchanged. (The marker used to be printed with %q, whose \x01 is
// not JSON: aztrace rejected such a file at line 1.)
func TestTracefileSectionNamesRoundTrip(t *testing.T) {
	const name = "ycsb\x01\"<c"
	src, err := os.ReadFile("../../examples/scenarios/ycsb-c.yaml")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spec := filepath.Join(dir, "odd.yaml")
	if err := os.WriteFile(spec, []byte(strings.Replace(string(src), "name: ycsb-c", "name: "+name, 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(dir, "trace.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// The report itself goes to stdout; keep it out of the test log.
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	stdout := os.Stdout
	os.Stdout = null
	cfg := core.QuickConfig()
	cfg.TraceOps = true
	runScenarios(cfg, []string{spec}, "", scenario.Options{Quick: true}, &output{traceOut: f, verdict: true})
	os.Stdout = stdout

	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := trace.ReadJSONL(f)
	if err != nil {
		t.Fatalf("reading the -tracefile back: %v", err)
	}
	if len(got.Sections) != 1 || got.Sections[0] != name {
		t.Errorf("sections = %q, want [%q]", got.Sections, name)
	}
	if len(got.Ops) == 0 {
		t.Error("no operations in the -tracefile of a traced run")
	}
}
