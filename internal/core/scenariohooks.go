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
// same -statsfile records, same Report rendering).

// ScenarioCloud builds a fresh environment + cloud exactly as the
// hard-coded experiments do (shared trace log attached when tracing is
// on).
func (s *Suite) ScenarioCloud() (*sim.Env, *cloud.Cloud) { return s.newCloud() }

// ScenarioSample attaches a labelled station sampler to the cloud (no-op
// unless Config.Telemetry), registering it for WriteStats export.
func (s *Suite) ScenarioSample(env *sim.Env, c *cloud.Cloud, label string) {
	s.sample(env, c.Stations, label)
}

// ScenarioRecordPartitions captures the cloud's partition-master summary
// under the given label, registering it for WriteStats export.
func (s *Suite) ScenarioRecordPartitions(label string, c *cloud.Cloud) PartitionRecord {
	return s.recordPartitions(label, c)
}

// ScenarioKernelStats folds the kernel telemetry of every environment
// ScenarioCloud has built since the last report, for Report.Kernel.
func (s *Suite) ScenarioKernelStats() KernelStats { return s.takeKernelStats() }

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
