package main

import (
	"os"
	"path/filepath"
	"testing"
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
