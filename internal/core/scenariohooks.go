package core

import (
	"crypto/sha256"
	"encoding/hex"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/sim"
)

// This file is the narrow surface internal/scenario builds on: the
// declarative scenario engine reuses the suite's cloud construction,
// telemetry attachment and partition-record plumbing so a scenario run
// emits exactly the outputs a hard-coded experiment does (same trace log,
// same -statsfile records, same Report rendering). A workload scenario is
// one data point that the engine, not a runner, owns: it holds the
// environments it builds, reads their kernel counts itself
// (KernelStats.Add), and attaches straight to the suite's exports.

// ScenarioPoint runs body holding one of the suite's pool slots, as every
// experiment's data point does, so scenario files that run side by side
// stay inside the same bound on live simulations.
func (s *Suite) ScenarioPoint(body func()) {
	s.slots <- struct{}{}
	defer func() { <-s.slots }()
	body()
}

// ScenarioCloud builds a fresh environment + cloud exactly as the
// hard-coded experiments do (shared trace log attached when tracing is
// on).
func (s *Suite) ScenarioCloud() (*sim.Env, *cloud.Cloud) { return s.newCloud() }

// ScenarioSample attaches a labelled station sampler to the cloud (no-op
// unless Config.Telemetry), registering it for WriteStats export.
func (s *Suite) ScenarioSample(env *sim.Env, c *cloud.Cloud, label string) {
	if sp := s.newSampler(env, c.Stations, label); sp != nil {
		s.samplers = append(s.samplers, sp)
	}
}

// ScenarioRecordPartitions captures the cloud's partition-master summary
// under the given label, registering it for WriteStats export.
func (s *Suite) ScenarioRecordPartitions(label string, c *cloud.Cloud) PartitionRecord {
	rec := partitionRecord(label, c)
	s.partitions = append(s.partitions, rec)
	return rec
}

// WallTimer exposes the suite's wall-clock stopwatch for external
// harnesses building Reports: it feeds only Report.Wall, the one
// deliberately wall-clock-dependent report field.
func WallTimer() func() time.Duration { return wallStopwatch() }

// CSVDigest is the canonical content digest of a report: the SHA-256 over
// the CSV blocks of every figure, in order. Wall time and rendering
// cosmetics are excluded, so two runs of the same deterministic
// experiment digest identically — this is what `azurebench -digest`
// prints and what the scenario equivalence tests compare.
func (r *Report) CSVDigest() string {
	h := sha256.New()
	for _, fig := range r.Figures {
		h.Write([]byte(fig.CSV()))
	}
	return hex.EncodeToString(h.Sum(nil))
}
