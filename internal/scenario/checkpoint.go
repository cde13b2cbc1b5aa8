package scenario

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/sim"
	"azurebench/internal/snapshot"
)

// This file implements the checkpoint: stanza — quiescent phase-boundary
// snapshots of the whole cloud — and the preemption fault's worker-state
// serialization.
//
// Scenario phases are separated by env.Run() drains: between phases no
// event is pending and no process is live, so unlike the mid-run
// experiment checkpoints (which restore by replay verification), a
// phase-boundary snapshot loads directly into a fresh environment and
// cloud. That makes true warm starts possible: restore skips setup and
// every phase up to the checkpoint, and fork_seeds re-runs the remaining
// phases many times from the same warmed state under different workload
// seeds.

// scenarioKind marks snapshots written by the checkpoint: stanza; the
// meta section layout otherwise mirrors core's experiment checkpoints.
const scenarioKind = "scenario"

// scenarioMetaSection names the identity section.
const scenarioMetaSection = "meta"

// captureScenario snapshots the quiescent simulation right after phase
// phaseIdx and returns the frozen (decode-of-encode) file: freezing
// proves the round trip and detaches the sections from live buffers so
// several forks can load from one capture.
func captureScenario(sp *Spec, env *sim.Env, c *cloud.Cloud, phaseIdx int) (*snapshot.File, error) {
	f := &snapshot.File{}
	w := f.Add(scenarioMetaSection)
	w.String(scenarioKind)
	w.String(sp.Name)
	w.Int(phaseIdx)
	w.String(sp.Phases[phaseIdx].Name)
	w.Duration(env.Now())

	reg := &snapshot.Registry{}
	reg.Register(env)
	c.RegisterSnapshot(reg, "")
	reg.SaveAll(f)

	frozen, err := snapshot.Decode(f.Encode())
	if err != nil {
		return nil, fmt.Errorf("scenario %q: checkpoint after phase %q does not round-trip: %w", sp.Name, sp.Phases[phaseIdx].Name, err)
	}
	return frozen, nil
}

// readScenarioMeta validates that f is a scenario snapshot for sp taken
// after phase phaseIdx, returning the captured virtual time.
func readScenarioMeta(f *snapshot.File, sp *Spec, phaseIdx int) (time.Duration, error) {
	r, err := f.Reader(scenarioMetaSection)
	if err != nil {
		return 0, err
	}
	kind := r.String()
	name := r.String()
	idx := r.Int()
	phase := r.String()
	at := r.Duration()
	if err := r.Close(); err != nil {
		return 0, fmt.Errorf("meta section: %w", err)
	}
	if kind != scenarioKind {
		return 0, fmt.Errorf("snapshot kind %q is not a scenario checkpoint (experiment checkpoints restore via azurebench -restore)", kind)
	}
	if name != sp.Name {
		return 0, fmt.Errorf("snapshot belongs to scenario %q, not %q", name, sp.Name)
	}
	if idx != phaseIdx || phase != sp.Phases[phaseIdx].Name {
		return 0, fmt.Errorf("snapshot was taken after phase %q (index %d); this spec checkpoints after %q (index %d)",
			phase, idx, sp.Phases[phaseIdx].Name, phaseIdx)
	}
	return at, nil
}

// loadScenario restores a scenario snapshot into a fresh, quiescent
// env + cloud pair. The cloud must already have the spec's fault
// injector attached, so the registered section list matches the capture.
func loadScenario(f *snapshot.File, sp *Spec, phaseIdx int, env *sim.Env, c *cloud.Cloud) error {
	if _, err := readScenarioMeta(f, sp, phaseIdx); err != nil {
		return fmt.Errorf("scenario %q: restore: %w", sp.Name, err)
	}
	reg := &snapshot.Registry{}
	reg.Register(env)
	c.RegisterSnapshot(reg, "")
	if err := reg.LoadAll(f); err != nil {
		return fmt.Errorf("scenario %q: restore: %w", sp.Name, err)
	}
	return nil
}

// marshalWorker serializes a closed-loop worker's resumable state through
// the snapshot codec: the workload cursor (insert sequence, undeleted
// queue claims) and both PRNG stream positions. The client itself is
// deliberately absent — a preempted worker restores onto a new host with
// a new client and NIC, like a spot eviction followed by reprovisioning.
func marshalWorker(st *clientState, rng *sim.Rand, ch *chooser) []byte {
	w := &snapshot.Writer{}
	w.Int(st.insertSeq)
	w.Int(len(st.claims))
	for _, cm := range st.claims {
		w.String(cm.id)
		w.String(cm.receipt)
	}
	w.U64(rng.State())
	w.U64(ch.rng.State())
	return w.Bytes()
}

// unmarshalWorker rebuilds the worker state for the restored client. The
// chooser is reconstructed from the spec (its zipf tables are pure
// functions of theta and population) and its stream position restored.
func unmarshalWorker(blob []byte, store Store, keys KeyDist, phaseStart time.Duration) (*clientState, *sim.Rand, *chooser, error) {
	r := snapshot.NewReader(blob)
	st := &clientState{store: store, insertSeq: r.Int()}
	n := r.Count()
	for i := 0; i < n; i++ {
		st.claims = append(st.claims, claim{id: r.String(), receipt: r.String()})
	}
	rng := sim.NewRand(0)
	rng.SetState(r.U64())
	chRng := sim.NewRand(0)
	chState := r.U64()
	if err := r.Close(); err != nil {
		return nil, nil, nil, fmt.Errorf("scenario: preempted worker state: %w", err)
	}
	ch := newChooser(keys, chRng, phaseStart)
	chRng.SetState(chState)
	return st, rng, ch, nil
}
