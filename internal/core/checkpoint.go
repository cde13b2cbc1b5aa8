package core

import (
	"encoding/json"
	"fmt"
	"time"

	"azurebench/internal/sim"
	"azurebench/internal/snapshot"
)

// This file wires internal/snapshot through the suite: Checkpoint arms a
// capture of the full simulation state at a virtual time, Restore replays
// an armed run from a snapshot file and verifies — byte for byte — that
// the live state at the checkpoint instant matches what was captured.
//
// Why replay instead of loading mid-run state directly: the simulation's
// processes are iter.Pull coroutines parked mid-function (DESIGN §17),
// and their stacks cannot be serialized. A mid-run snapshot therefore
// records everything *data* — engines, clocks, PRNG streams, counters,
// event-heap fingerprint — and restore re-derives the *control* state
// (the parked processes) by re-running the deterministic prefix from the
// embedded configuration. At the checkpoint instant, Registry.VerifyAll re-saves
// every live section and byte-compares it against the file; a match
// proves the replayed trajectory is the checkpointed one, so the
// continuation is byte-identical by construction. Quiescent snapshots
// (scenario phase boundaries, where no event is pending) skip the
// replay and load directly — that path lives in internal/scenario.

// checkpointMetaSection names the file section holding the run identity.
const checkpointMetaSection = "meta"

// checkpointKindExperiment marks snapshots written by Suite.Checkpoint;
// scenario phase-boundary snapshots carry their own kind and restore
// through the scenario engine, not through core.Restore.
const checkpointKindExperiment = "experiment"

// checkpointCtl coordinates one capture or one replay-verification. It
// is shared by pointer across withParams sub-suites, so experiments that
// clone the suite per data point (hotspot, georepl, ablation) still arm
// exactly one environment.
type checkpointCtl struct {
	id   string        // experiment the checkpoint belongs to
	at   time.Duration // virtual capture instant
	file string        // capture: destination path

	// cfg is the ROOT suite's configuration, pinned when Checkpoint is
	// called: the env that fires the hook often belongs to a withParams
	// sub-suite (ablation's first data point, georepl's per-lag clone),
	// and embedding that sub-suite's mutated config would make Restore
	// replay the whole experiment under one data point's overrides.
	cfg Config

	// verify, when non-nil, switches the hook from capture to
	// byte-compare against this decoded snapshot.
	verify *snapshot.File

	armed bool // an environment has claimed the hook
	fired bool
	err   error
}

// Checkpoint arms the suite to capture a snapshot of experiment id's
// simulation at virtual time at, written to file. The first environment
// the experiment builds carries the hook (experiments sweep several data
// points; the first one is the canonical checkpoint subject). Run the
// experiment, then call CheckpointOutcome for the verdict.
func (s *Suite) Checkpoint(id string, at time.Duration, file string) error {
	if _, ok := Lookup(id); !ok {
		return fmt.Errorf("checkpoint: unknown experiment %q", id)
	}
	if at <= 0 {
		return fmt.Errorf("checkpoint: capture time %v must be positive virtual time", at)
	}
	if file == "" {
		return fmt.Errorf("checkpoint: no snapshot file given")
	}
	if s.ckpt != nil {
		return fmt.Errorf("checkpoint: suite already armed")
	}
	s.ckpt = &checkpointCtl{id: id, at: at, file: file, cfg: s.cfg}
	return nil
}

// CheckpointOutcome reports how the armed capture (or restore
// verification) went: nil on success, an error if no environment ever
// reached the hook or the capture/verify itself failed.
func (s *Suite) CheckpointOutcome() error {
	ck := s.ckpt
	if ck == nil {
		return nil
	}
	if !ck.armed {
		return fmt.Errorf("checkpoint: experiment %q never built a simulation environment", ck.id)
	}
	if !ck.fired {
		return fmt.Errorf("checkpoint: virtual time %v was never reached", ck.at)
	}
	return ck.err
}

// armCheckpoint installs the checkpoint hook on env if the suite is
// armed and no earlier environment has claimed it. register must, when
// invoked, register every Snapshotter of the data point's cloud(s) —
// it runs at the capture instant, not at arm time, so lazily created
// state (a failback stream, a fault injector) registers exactly when it
// exists.
func (s *Suite) armCheckpoint(env *sim.Env, register func(*snapshot.Registry)) {
	ck := s.ckpt
	if ck == nil || ck.armed {
		return
	}
	ck.armed = true
	env.OnTime(ck.at, func() {
		ck.fired = true
		reg := &snapshot.Registry{}
		reg.Register(env)
		register(reg)
		if ck.verify != nil {
			if err := reg.VerifyAll(ck.verify); err != nil {
				ck.err = fmt.Errorf("restore verification at %v: %w", ck.at, err)
			}
			return
		}
		f := &snapshot.File{}
		writeCheckpointMeta(f.Add(checkpointMetaSection), ck.id, ck.at, ck.cfg)
		reg.SaveAll(f)
		if err := f.WriteFile(ck.file); err != nil {
			ck.err = fmt.Errorf("writing checkpoint: %w", err)
		}
	})
}

// writeCheckpointMeta appends the self-describing run identity: restore
// needs nothing but the file to reproduce the run.
func writeCheckpointMeta(w *snapshot.Writer, id string, at time.Duration, cfg Config) {
	w.String(checkpointKindExperiment)
	w.String(id)
	w.Duration(at)
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		// Config is a plain struct of exported scalar/slice fields; a
		// marshal failure is a programming error, not an input error.
		panic(fmt.Sprintf("checkpoint: marshaling config: %v", err))
	}
	w.BytesField(cfgJSON)
}

// readCheckpointMeta decodes the meta section written above.
func readCheckpointMeta(f *snapshot.File) (id string, at time.Duration, cfg Config, err error) {
	r, err := f.Reader(checkpointMetaSection)
	if err != nil {
		return "", 0, Config{}, fmt.Errorf("restore: %w", err)
	}
	kind := r.String()
	id = r.String()
	at = r.Duration()
	cfgJSON := r.BytesField()
	if err := r.Close(); err != nil {
		return "", 0, Config{}, fmt.Errorf("restore: meta section: %w", err)
	}
	if kind != checkpointKindExperiment {
		return "", 0, Config{}, fmt.Errorf("restore: snapshot kind %q is not an experiment checkpoint (scenario snapshots restore via their checkpoint: stanza)", kind)
	}
	if err := json.Unmarshal(cfgJSON, &cfg); err != nil {
		return "", 0, Config{}, fmt.Errorf("restore: decoding embedded config: %w", err)
	}
	return id, at, cfg, nil
}

// Restore re-runs the experiment checkpointed in path from its embedded
// configuration, verifying at the checkpoint instant that every live
// state section is byte-identical to the captured one, and returns the
// completed run's report. On success the report (CSV figures, trace) is
// byte-identical to an uninterrupted run of the same configuration: the
// replay *is* that run, and the verification proves it never diverged
// from the captured state.
func Restore(path string) (*Report, *Suite, error) {
	f, err := snapshot.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("restore: %w", err)
	}
	id, at, cfg, err := readCheckpointMeta(f)
	if err != nil {
		return nil, nil, err
	}
	exp, ok := Lookup(id)
	if !ok {
		return nil, nil, fmt.Errorf("restore: snapshot names unknown experiment %q", id)
	}
	s := NewSuite(cfg)
	s.ckpt = &checkpointCtl{id: id, at: at, verify: f, cfg: cfg}
	rep := exp.Run(s)
	if err := s.CheckpointOutcome(); err != nil {
		return rep, s, err
	}
	return rep, s, nil
}
