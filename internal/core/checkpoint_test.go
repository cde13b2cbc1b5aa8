package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"azurebench/internal/snapshot"
)

var updateCheckpointMeta = flag.Bool("update-checkpoint-meta", false,
	"rewrite testdata/checkpoint-meta.golden (only on a commit that means to change the meta section)")

// TestRestoreEquivalenceAllExperiments is the headline determinism proof,
// table-driven across every registered experiment: arming the checkpoint
// hook must not perturb the run (same CSV digest), and restoring the
// written snapshot must replay to the same digest with every state
// section verified byte-identical at the checkpoint instant.
func TestRestoreEquivalenceAllExperiments(t *testing.T) {
	const at = 500 * time.Millisecond
	dir := t.TempDir()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			cfg := tinyConfig()
			cfg.Workers = []int{1, 2}
			cfg.Seed = 99

			plain := e.Run(NewSuite(cfg)).CSVDigest()

			file := filepath.Join(dir, e.ID+".azsnap")
			armed := NewSuite(cfg)
			if err := armed.Checkpoint(e.ID, at, file); err != nil {
				t.Fatalf("arming: %v", err)
			}
			if d := e.Run(armed).CSVDigest(); d != plain {
				t.Fatalf("arming the checkpoint hook changed the run: %s vs %s", d, plain)
			}
			if err := armed.CheckpointOutcome(); err != nil {
				// Experiments that never build a simulation environment
				// have nothing to capture; everything else must.
				if strings.Contains(err.Error(), "never built") {
					t.Logf("no restore leg: %v", err)
					return
				}
				t.Fatalf("capture: %v", err)
			}
			if _, err := os.Stat(file); err != nil {
				t.Fatalf("snapshot file: %v", err)
			}

			rep, _, err := Restore(file)
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			if d := rep.CSVDigest(); d != plain {
				t.Fatalf("restored run diverged: %s vs %s", d, plain)
			}
		})
	}
}

// TestRestoreRejectsCorruptedFile locks in the failure mode: a flipped
// byte anywhere in the snapshot must be caught by the CRC/SHA layers,
// never silently replayed.
func TestRestoreRejectsCorruptedFile(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = []int{1, 2}
	file := filepath.Join(t.TempDir(), "faults.azsnap")
	s := NewSuite(cfg)
	if err := s.Checkpoint("faults", 500*time.Millisecond, file); err != nil {
		t.Fatalf("arming: %v", err)
	}
	e, _ := Lookup("faults")
	e.Run(s)
	if err := s.CheckpointOutcome(); err != nil {
		t.Fatalf("capture: %v", err)
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Restore(file); err == nil {
		t.Fatal("corrupted snapshot restored without error")
	}
}

// TestCheckpointMetaGolden pins the bytes of the meta section of the
// quick faults checkpoint (`-quick -experiment faults -checkpoint-at 6s`):
// the run identity restore reads back. Restore reads its fields and
// nothing else, so this is where a field that differs between two
// captures of the same run would show.
func TestCheckpointMetaGolden(t *testing.T) {
	const at = 6 * time.Second
	file := filepath.Join(t.TempDir(), "faults.azsnap")
	s := NewSuite(QuickConfig())
	if err := s.Checkpoint("faults", at, file); err != nil {
		t.Fatalf("arming: %v", err)
	}
	e, _ := Lookup("faults")
	e.Run(s)
	if err := s.CheckpointOutcome(); err != nil {
		t.Fatalf("capture: %v", err)
	}
	f, err := snapshot.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	meta := f.Section(checkpointMetaSection)
	if meta == nil {
		t.Fatal("no meta section")
	}
	got := fmt.Sprintf("faults at=%v meta len=%d sha256=%x\n", at, len(meta.Payload), sha256.Sum256(meta.Payload))

	const golden = "testdata/checkpoint-meta.golden"
	if *updateCheckpointMeta {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("checkpoint meta drifted from %s\ngot:  %swant: %s", golden, got, want)
	}
}

// TestBlobSetupErrorNamesTheStep: a storage error left after the client's
// retries in the blob experiment's untimed setup stops the point with
// the name of the step that failed. The account throttle here admits no
// request at all, so the first step, creating the container, is the one
// that fails.
func TestBlobSetupErrorNamesTheStep(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = []int{1}
	cfg.Params.AccountOpsPerSec, cfg.Params.AccountBurst = 1e-9, 0.5
	var got any
	func() {
		defer func() { got = recover() }()
		NewSuite(cfg).blobPoint(1)
	}()
	if msg, _ := got.(string); !strings.Contains(msg, `"setup" panicked: create container: `) {
		t.Fatalf("recovered %v, want the setup process stopped at \"create container\"", got)
	}
}
