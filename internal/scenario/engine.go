package scenario

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/core"
	"azurebench/internal/faults"
	"azurebench/internal/metrics"
	"azurebench/internal/payload"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	"azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/workload"
)

// Options tunes a scenario run.
type Options struct {
	// Quick divides workload-phase durations by quickDivisor (floor 1s),
	// mirroring core.QuickConfig's ~1/10-scale smoke runs. Experiment-
	// driver scenarios are unaffected: their scale comes from the base
	// core.Config, which the CLI already swaps for QuickConfig.
	Quick bool
}

const quickDivisor = 4

// Result is one executed scenario: the familiar experiment Report, the
// flat metric map SLOs are evaluated against, and the verdicts.
type Result struct {
	Spec    *Spec
	Report  *core.Report
	Metrics map[string]float64
	SLO     []SLOResult
}

// Passed reports whether every SLO assertion held.
func (r *Result) Passed() bool {
	for _, s := range r.SLO {
		if !s.Pass {
			return false
		}
	}
	return true
}

// RenderSLO formats the scenario's SLO verdicts (empty when the spec
// asserts nothing).
func (r *Result) RenderSLO() string {
	return RenderSLOs(r.SLO, r.Metrics)
}

// Run executes a scenario Parse accepted against a suite whose
// configuration already has sp.Apply'd overrides folded in.
func Run(s *core.Suite, sp *Spec, opts Options) (*Result, error) {
	var rep *core.Report
	var m map[string]float64
	if sp.Driver == "experiment" {
		exp, _ := core.Lookup(sp.Experiment) // Parse refuses an unregistered id
		rep = exp.Run(s)
		m = flattenReport(rep)
	} else {
		var err error
		s.ScenarioPoint(func() { rep, m, err = runWorkload(s, sp, opts) })
		if err != nil {
			return nil, err
		}
	}
	// Trace-derived stage metrics extend the SLO-addressable namespace
	// whenever the run traced (spec trace: true, or the CLI's -trace /
	// -tracefile flags): SLOs can then gate on stage percentiles like
	// trace.stage.server.p99_ms.
	if l := s.TraceLog(); l != nil {
		for k, v := range traceMetrics(l) {
			m[k] = v
		}
	}
	return &Result{
		Spec:    sp,
		Report:  rep,
		Metrics: m,
		SLO:     EvaluateSLOs(sp.SLOs, m),
	}, nil
}

// flattenReport exposes figure series as SLO-addressable aggregates:
// fig<N>.<series>.{min,max,mean,first,last,count}, N 1-based in figure
// order.
func flattenReport(rep *core.Report) map[string]float64 {
	m := map[string]float64{}
	for i, fig := range rep.Figures {
		for _, se := range fig.Series {
			if len(se.Points) == 0 {
				continue
			}
			minV, maxV, sum := se.Points[0].Y, se.Points[0].Y, 0.0
			for _, pt := range se.Points {
				if pt.Y < minV {
					minV = pt.Y
				}
				if pt.Y > maxV {
					maxV = pt.Y
				}
				sum += pt.Y
			}
			prefix := fmt.Sprintf("fig%d.%s.", i+1, se.Name)
			m[prefix+"min"] = minV
			m[prefix+"max"] = maxV
			m[prefix+"mean"] = sum / float64(len(se.Points))
			m[prefix+"first"] = se.Points[0].Y
			m[prefix+"last"] = se.Points[len(se.Points)-1].Y
			m[prefix+"count"] = float64(len(se.Points))
		}
	}
	return m
}

// RetryPolicy is the discipline every workload-driver client runs under:
// resilient enough to ride out migration blackouts and injected outages,
// bounded so persistent failures surface as error counts (which SLO
// assertions can then gate on) rather than hangs.
func RetryPolicy() retry.Policy {
	return retry.Policy{
		MaxAttempts: 8,
		BaseDelay:   100 * time.Millisecond,
		Multiplier:  2,
		MaxDelay:    2 * time.Second,
		Jitter:      0.2,
		Deadline:    30 * time.Second,
	}
}

// claimVisibility is the GetMessage claim duration for queue_get ops.
const claimVisibility = 30 * time.Second

// scanTop is the page size of a table_scan (YCSB E's short range).
const scanTop = 10

// tally counts a phase's successful operations. A closed-loop worker owns
// one and records into it unlocked; the phase's own is what the op
// processes of an open arrival share (under phaseStats.mu) and what the
// workers' are folded into when the phase ends. Counts and per-second
// buckets add and a Dist's percentiles do not depend on insertion order, so
// the fold reports what one shared tally would have.
type tally struct {
	perSec    []int
	lat       metrics.Dist
	completed int
	misses    int
	opCounts  []int
}

func newTally(ph *Phase) tally {
	return tally{
		perSec:   make([]int, int(ph.Duration/time.Second)+1),
		opCounts: make([]int, len(ph.Ops)),
	}
}

// record notes an operation of kind (an index into the phase's op mix) that
// ran from began to done; start is the phase's.
func (t *tally) record(kind int, miss bool, start, began, done time.Duration) {
	t.completed++
	t.opCounts[kind]++
	if miss {
		t.misses++
	}
	t.lat.Add(done - began)
	if sec := int((done - start) / time.Second); sec >= 0 && sec < len(t.perSec) {
		t.perSec[sec]++
	}
}

func (t *tally) fold(o *tally) {
	for i, n := range o.perSec {
		t.perSec[i] += n
	}
	for i, n := range o.opCounts {
		t.opCounts[i] += n
	}
	t.lat.Merge(&o.lat)
	t.completed += o.completed
	t.misses += o.misses
}

// phaseOp is what is resolved of an entry of a phase's op mix when the phase
// starts: the op's dispatch code and the record population it addresses.
type phaseOp struct {
	code opCode
	keys int
}

// phaseStats is one phase as it runs and, once it has, its outcome (the
// embedded tally). dispatched belongs to the phase's single dispatcher.
type phaseStats struct {
	phase       Phase
	ops         []phaseOp // one per phase.Ops entry
	totalWeight int
	start, end  time.Duration
	dispatched  int // open arrivals only

	mu sync.Mutex // guards what follows, and tally for open arrivals
	tally
	errors    int
	firstErr  error
	preempted int // closed-loop workers evicted mid-phase
}

// failed notes an operation that exhausted its retries.
func (ps *phaseStats) failed(err error) {
	ps.mu.Lock()
	ps.errors++
	if ps.firstErr == nil {
		ps.firstErr = err
	}
	ps.mu.Unlock()
}

// claim is one undeleted queue_get receipt, consumed by queue_delete.
type claim struct {
	id, receipt string
}

// clientState is the per-client mutable workload state. Open arrivals run
// several ops of one client at once, so the cursor is guarded by mu.
type clientState struct {
	store Store

	mu        sync.Mutex
	claims    []claim
	insertSeq int
}

// addClaim records a claimed message for a later queue_delete.
func (st *clientState) addClaim(c claim) {
	st.mu.Lock()
	st.claims = append(st.claims, c)
	st.mu.Unlock()
}

// takeClaim removes and returns the oldest undeleted claim, after filing
// any just-made claim behind the ones already held.
func (st *clientState) takeClaim(fresh ...claim) (claim, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.claims = append(st.claims, fresh...)
	if len(st.claims) == 0 {
		return claim{}, false
	}
	c := st.claims[0]
	st.claims = st.claims[1:]
	return c, true
}

// nextInsert returns the row sequence number the next table_insert uses.
func (st *clientState) nextInsert() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.insertSeq
}

// inserted advances the row sequence after a successful table_insert.
func (st *clientState) inserted() {
	st.mu.Lock()
	st.insertSeq++
	st.mu.Unlock()
}

// engine executes the workload driver's phases on one substrate.
type engine struct {
	sp   *Spec
	rt   Runtime
	dial func(name string) Store // one storage client per workload client
	seed int64
	// keyNames[i] is workload.Key(i) for every key a phase so far could
	// draw: rendered between phases, read by their workers.
	keyNames []string
}

// scaledPhase applies quick-mode duration scaling.
func scaledPhase(ph Phase, opts Options) Phase {
	if opts.Quick {
		ph.Duration /= quickDivisor
		if ph.Duration < time.Second {
			ph.Duration = time.Second
		}
	}
	return ph
}

// RunOn executes a workload-driver scenario on the given substrate: its
// processes run on rt and each workload client reaches storage through
// its own dial(name). This is the live front door (internal/liverun
// supplies goroutines, the wall clock and an SDK client); stanzas that
// configure the simulated cloud are rejected by name.
func RunOn(rt Runtime, dial func(name string) Store, sp *Spec, seed int64, opts Options) (*Result, error) {
	if err := sp.CheckLive(); err != nil {
		return nil, err
	}
	wall := core.WallTimer()
	eng := &engine{sp: sp, rt: rt, dial: dial, seed: seed}
	if err := eng.setup(); err != nil {
		return nil, err
	}
	var phases []*phaseStats
	for i, ph := range sp.Phases {
		phases = append(phases, eng.runPhase(i, scaledPhase(ph, opts)))
	}
	rep, m := workloadReport(sp, phases, []string{
		"not simulated: \"virtual time\" on this report's axes and in its notes is real time since the run began"})
	rep.Wall = wall()
	return &Result{Spec: sp, Report: rep, Metrics: m, SLO: EvaluateSLOs(sp.SLOs, m)}, nil
}

// CheckLive rejects every stanza that configures or depends on the
// simulated cloud, naming the offending key: off the simulator there is
// nothing to apply it to, and ignoring it would misreport what ran.
func (sp *Spec) CheckLive() error {
	var errs []string
	simOnly := func(key, why string) {
		errs = append(errs, fmt.Sprintf("scenario %q: %s is simulation-only (%s); it cannot run live", sp.Name, key, why))
	}
	if sp.Driver != "workload" {
		simOnly("driver: "+sp.Driver, "it replays a registered simulated experiment")
	}
	if sp.Params != (ParamsPatch{}) {
		simOnly("params:", "it patches the simulated cloud's model parameters")
	}
	if sp.Faults != nil {
		simOnly("faults:", "the injector lives inside the simulated cloud")
	}
	if sp.Checkpoint != nil {
		simOnly("checkpoint:", "snapshots capture simulated state")
	}
	if sp.Trace {
		simOnly("trace: true", "it records the simulated cloud's op trace")
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(errs, "\n"))
}

// runWorkload executes a workload-driver scenario on a fresh simulated
// cloud and returns the report plus the flat metric map.
func runWorkload(s *core.Suite, sp *Spec, opts Options) (*core.Report, map[string]float64, error) {
	wall := core.WallTimer()

	// Checkpoint plumbing: ci is the phase the snapshot follows; frozen
	// is the captured (or disk-loaded) snapshot the forks and a restored
	// run load from.
	ck := sp.Checkpoint
	ci := -1
	if ck != nil {
		for i, ph := range sp.Phases {
			if ph.Name == ck.After {
				ci = i
			}
		}
	}
	var frozen *snapshot.File
	restoring := false
	if ck != nil && (ck.Restore == "always" || ck.Restore == "auto") {
		f, err := snapshot.ReadFile(ck.File)
		switch {
		case err == nil:
			frozen = f
			restoring = true
		case ck.Restore == "always":
			return nil, nil, fmt.Errorf("scenario %q: checkpoint.restore always: %w", sp.Name, err)
			// auto with no readable file: run cold and write it below.
		}
	}

	env, c := s.ScenarioCloud()
	var kernel core.KernelStats // of env and, as they finish, the forks' environments
	seed := s.Config().Seed
	eng := &engine{sp: sp, rt: simRuntime{env}, dial: simDial(c), seed: seed}

	// applyFaults attaches the spec's injector; forks re-apply it to
	// their own clouds so the snapshot's section list (which includes
	// faults/injector when armed) matches at load time.
	applyFaults := func(c *cloud.Cloud) {
		f := sp.Faults
		if f == nil {
			return
		}
		plan := faults.Uniform(seed, f.Rate)
		if f.Timeout > 0 {
			plan.Timeout = f.Timeout
		}
		for _, o := range f.Outages {
			plan.Outages = append(plan.Outages, faults.Window{
				Service:  o.Service,
				Station:  o.Station,
				Start:    o.Start,
				Duration: o.Duration,
			})
		}
		c.SetFaults(faults.NewInjector(plan))
	}
	applyFaults(c)

	var phases []*phaseStats
	var ckNotes []string
	if restoring {
		// Warm start: the snapshot carries the whole cloud (preloaded
		// objects included), so setup and phases 0..ci are skipped.
		if err := loadScenario(frozen, sp, ci, env, c); err != nil {
			return nil, nil, err
		}
		s.ScenarioSample(env, c, sp.Name)
		ckNotes = append(ckNotes, fmt.Sprintf(
			"warm start: restored %s (after phase %q, virtual %v); setup and %d earlier phase(s) skipped",
			ck.File, ck.After, env.Now().Round(time.Millisecond), ci+1))
	} else {
		if err := eng.setup(); err != nil {
			return nil, nil, err
		}
		s.ScenarioSample(env, c, sp.Name)
		for i := 0; i <= ci; i++ {
			phases = append(phases, eng.runPhase(i, scaledPhase(sp.Phases[i], opts)))
		}
		if ck != nil {
			var err error
			frozen, err = captureScenario(sp, env, c, ci)
			if err != nil {
				return nil, nil, err
			}
			note := fmt.Sprintf("checkpoint captured after phase %q (virtual %v)", ck.After, env.Now().Round(time.Millisecond))
			if ck.File != "" {
				if err := frozen.WriteFile(ck.File); err != nil {
					return nil, nil, fmt.Errorf("scenario %q: writing checkpoint: %w", sp.Name, err)
				}
				note += ", written to " + ck.File
			}
			ckNotes = append(ckNotes, note)
		}
	}
	for i := ci + 1; i < len(sp.Phases); i++ {
		phases = append(phases, eng.runPhase(i, scaledPhase(sp.Phases[i], opts)))
	}

	// Forks: re-run the post-checkpoint phases from the same warmed
	// state under different workload seeds, each on its own cloud.
	if ck != nil && len(ck.ForkSeeds) > 0 {
		for _, fs := range ck.ForkSeeds {
			fenv, fc := s.ScenarioCloud()
			applyFaults(fc)
			if err := loadScenario(frozen, sp, ci, fenv, fc); err != nil {
				return nil, nil, fmt.Errorf("fork seed %d: %w", fs, err)
			}
			feng := &engine{sp: sp, rt: simRuntime{fenv}, dial: simDial(fc), seed: fs}
			for i := ci + 1; i < len(sp.Phases); i++ {
				fps := feng.runPhase(i, scaledPhase(sp.Phases[i], opts))
				fps.phase.Name = fmt.Sprintf("fork%d.%s", fs, fps.phase.Name)
				phases = append(phases, fps)
			}
			kernel.Add(fenv)
		}
		ckNotes = append(ckNotes, fmt.Sprintf(
			"forked %d seed(s) from the phase-%q state; fork metrics are namespaced fork<seed>.<phase>.*",
			len(ck.ForkSeeds), ck.After))
	}

	rec := s.ScenarioRecordPartitions("scenario/"+sp.Name, c)
	st := c.Stats()
	rep, m := workloadReport(sp, phases, ckNotes)
	m["total.retries"] = float64(st.Retries)
	m["total.busy_rejects"] = float64(st.BusyRejects)
	m["total.splits"] = float64(rec.Splits)
	m["total.merges"] = float64(rec.Merges)
	m["total.migrations"] = float64(rec.Migrations)
	m["total.partition_servers"] = float64(rec.Servers)
	if in := c.Faults(); in != nil {
		m["total.faults_injected"] = float64(in.Stats().Injected())
	}
	rep.Wall = wall()
	kernel.Add(env)
	rep.Kernel = kernel
	return rep, m, nil
}

// workloadReport renders the executed phases as the scenario's Report
// (throughput-over-time and latency-percentile figures, one note per
// phase after the given leading notes) and flat metric map.
func workloadReport(sp *Spec, phases []*phaseStats, notes []string) (*core.Report, map[string]float64) {
	title := sp.Title
	if title == "" {
		title = "Scenario " + sp.Name
	}
	throughput := metrics.Figure{
		Title:  fmt.Sprintf("Scenario %s: completed ops over time", sp.Name),
		XLabel: "virtual time (s)",
		YLabel: "ops/s",
	}
	latency := metrics.Figure{
		Title:  fmt.Sprintf("Scenario %s: latency percentiles per phase", sp.Name),
		XLabel: "phase",
		YLabel: "latency (ms)",
	}
	m := map[string]float64{}
	var totalOps, totalErrors, totalMisses, totalPreempted int
	var measured time.Duration
	for i, ps := range phases {
		for sec, n := range ps.perSec {
			throughput.AddPoint(ps.phase.Name, ps.start.Seconds()+float64(sec), float64(n))
		}
		x := float64(i + 1)
		latency.AddPoint("p50", x, ms(ps.lat.Percentile(50)))
		latency.AddPoint("p95", x, ms(ps.lat.Percentile(95)))
		latency.AddPoint("p99", x, ms(ps.lat.Percentile(99)))

		dur := ps.end - ps.start
		goodput := 0.0
		if dur > 0 {
			goodput = float64(ps.completed) / dur.Seconds()
		}
		p := ps.phase.Name
		m[p+".ops"] = float64(ps.completed)
		m[p+".errors"] = float64(ps.errors)
		m[p+".misses"] = float64(ps.misses)
		m[p+".goodput"] = goodput
		m[p+".mean_ms"] = ms(ps.lat.Mean())
		m[p+".p50_ms"] = ms(ps.lat.Percentile(50))
		m[p+".p95_ms"] = ms(ps.lat.Percentile(95))
		m[p+".p99_ms"] = ms(ps.lat.Percentile(99))
		m[p+".max_ms"] = ms(ps.lat.Max())
		m[p+".preemptions"] = float64(ps.preempted)
		for j, ow := range ps.phase.Ops {
			m[p+".ops."+ow.Op] = float64(ps.opCounts[j])
		}
		totalOps += ps.completed
		totalErrors += ps.errors
		totalMisses += ps.misses
		totalPreempted += ps.preempted
		measured += dur

		var ctr metrics.Counters
		ctr.Add("ops completed", float64(ps.completed))
		ctr.Add("goodput ops/s", goodput)
		ctr.Add("errors (retries exhausted)", float64(ps.errors))
		ctr.Add("misses (not found / empty)", float64(ps.misses))
		if ps.phase.Arrival.Kind != "closed" {
			ctr.Add("ops dispatched", float64(ps.dispatched))
		}
		if ps.preempted > 0 {
			ctr.Add("workers preempted", float64(ps.preempted))
		}
		ctr.Add("latency p50 ms", ms(ps.lat.Percentile(50)))
		ctr.Add("latency p95 ms", ms(ps.lat.Percentile(95)))
		ctr.Add("latency p99 ms", ms(ps.lat.Percentile(99)))
		for j, ow := range ps.phase.Ops {
			ctr.Add("  "+ow.Op, float64(ps.opCounts[j]))
		}
		note := fmt.Sprintf(
			"phase %s (%s arrival, %d clients, %v at virtual %v..%v):\n%s",
			p, ps.phase.Arrival.Kind, ps.phase.Clients, dur,
			ps.start.Round(time.Millisecond), ps.end.Round(time.Millisecond), ctr.Render())
		if ps.firstErr != nil {
			note += fmt.Sprintf("\nfirst error: %v", ps.firstErr)
		}
		notes = append(notes, note)
	}
	m["total.ops"] = float64(totalOps)
	m["total.errors"] = float64(totalErrors)
	m["total.misses"] = float64(totalMisses)
	m["total.preemptions"] = float64(totalPreempted)
	if measured > 0 {
		m["total.goodput"] = float64(totalOps) / measured.Seconds()
	}

	rep := &core.Report{
		ID:      sp.Name,
		Title:   title,
		Figures: []metrics.Figure{throughput, latency},
		Notes:   notes,
	}
	// Figure aggregates are addressable too (fig1.<phase>.max etc.);
	// engine-produced names win on collision, though prefixes keep the two
	// namespaces disjoint in practice.
	for k, v := range flattenReport(rep) {
		if _, exists := m[k]; !exists {
			m[k] = v
		}
	}
	return rep, m
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// setup creates and preloads the declared storage objects, then waits for
// the substrate to go quiet so phase 0 starts on an idle store.
func (e *engine) setup() error {
	pl, seed := &preload{st: e.dial("setup")}, uint64(e.seed)
	for _, t := range e.sp.Setup.Tables {
		pl.add("create table "+t.Name, cloud.Op{Kind: cloud.OpCreateTableIfNotExists, Name: t.Name})
		for i := 0; i < t.Keys; i++ {
			ent := &tablestore.Entity{PartitionKey: workload.Key(i), RowKey: "row", Props: map[string]tablestore.Value{
				"Data": tablestore.Binary(payload.Synthetic(seed+uint64(i), int64(t.EntityKB)*storecommon.KB)),
			}}
			pl.add("insert entity", cloud.Op{Kind: cloud.OpInsertEntity, Name: t.Name, Key: ent.PartitionKey, Ent: ent})
		}
	}
	for _, q := range e.sp.Setup.Queues {
		pl.add("create queue "+q.Name, cloud.Op{Kind: cloud.OpCreateQueueIfNotExists, Name: q.Name})
		for i := 0; i < q.Preload; i++ {
			body := payload.Synthetic(seed^uint64(i)*0x9E3779B97F4A7C15, int64(q.MessageKB)*storecommon.KB)
			pl.add("preload message", cloud.Op{Kind: cloud.OpPutMessage, Name: q.Name, Data: body})
		}
	}
	for _, ct := range e.sp.Setup.Containers {
		pl.add("create container "+ct.Name, cloud.Op{Kind: cloud.OpCreateContainerIfNotExists, Name: ct.Name})
		for i := 0; i < ct.Blobs; i++ {
			data := payload.Synthetic(seed^uint64(i)*0x9E3779B97F4A7C15, int64(ct.BlobKB)*storecommon.KB)
			pl.add("preload blob", cloud.Op{Kind: cloud.OpUploadBlockBlob, Name: ct.Name, Key: workload.Key(i), Data: data})
		}
	}
	e.rt.Go("setup", pl)
	e.rt.Wait()
	if pl.err != nil {
		return fmt.Errorf("scenario %q: setup: %w", e.sp.Name, pl.err)
	}
	return nil
}

// preload is setup's process: it makes setup's requests one at a time.
// The first persistent error stops it; an entity that already exists is
// not an error, so a spec can be re-run against a long-lived store.
type preload struct {
	st   Store
	what []string // what each request is, for its error
	ops  []cloud.Op
	sent int
	err  error
}

func (pl *preload) add(what string, op cloud.Op) {
	pl.what, pl.ops = append(pl.what, what), append(pl.ops, op)
}

func (pl *preload) Resume(p Proc) {
	if i := pl.sent - 1; i >= 0 {
		if err := pl.ops[i].Err; err != nil && !(pl.ops[i].Kind == cloud.OpInsertEntity && storecommon.IsConflict(err)) {
			pl.err = fmt.Errorf("%s: %w", pl.what[i], err)
			return
		}
	}
	if pl.sent < len(pl.ops) {
		pl.sent++
		pl.st.Start(p, &pl.ops[pl.sent-1], pl)
	}
}

// phaseSalt derives a deterministic per-phase RNG stream.
func (e *engine) phaseSalt(phase int) int64 {
	return e.seed ^ (int64(phase+1) * 0x61C8864680B583EB)
}

// newPhaseStats starts a phase's record now, its op mix resolved and every
// key it can draw rendered.
func (e *engine) newPhaseStats(phase Phase) *phaseStats {
	ps := &phaseStats{phase: phase, start: e.rt.Now()}
	ph := &ps.phase
	ps.tally = newTally(ph)
	for _, ow := range ph.Ops {
		keys := e.keyspace(ph, ow.Op)
		ps.ops = append(ps.ops, phaseOp{code: opCode(slices.Index(opKinds, ow.Op)), keys: keys})
		ps.totalWeight += ow.Weight
		for len(e.keyNames) < keys {
			e.keyNames = append(e.keyNames, workload.Key(len(e.keyNames)))
		}
	}
	return ps
}

// runPhase executes one phase and drains its stragglers.
func (e *engine) runPhase(idx int, phase Phase) *phaseStats {
	ps := e.newPhaseStats(phase)
	ph, start := &ps.phase, ps.start
	end := start + ph.Duration

	states := make([]*clientState, ph.Clients)
	for k := range states {
		states[k] = &clientState{store: e.dial(fmt.Sprintf("%s-c%d", ph.Name, k))}
	}

	var workers []tally
	if ph.Arrival.Kind == "closed" {
		workers = make([]tally, len(states))
		for k, st := range states {
			workers[k] = newTally(ph)
			w := &worker{ps: ps, t: &workers[k], name: fmt.Sprintf("%s-c%d", ph.Name, k), end: end,
				evs:  e.evictionsFor(k, start, end),
				rng:  sim.NewRand(e.phaseSalt(idx) ^ (int64(k+1) << 20)),
				ch:   newChooser(ph.Keys, sim.NewRand(e.phaseSalt(idx)^(int64(k+1)<<21)), start),
				call: call{e: e, st: st, ph: ph}}
			e.rt.Go(w.name, w)
		}
	} else {
		opSalt, keySalt := int64(0x0D15), int64(0x0D16)
		if ph.Arrival.Kind == "burst" {
			opSalt, keySalt = 0x0D17, 0x0D18
		}
		e.rt.Go(ph.Name+"-dispatch", &dispatcher{e: e, ps: ps, states: states, end: end,
			rng: sim.NewRand(e.phaseSalt(idx) ^ opSalt), ch: newChooser(ph.Keys, sim.NewRand(e.phaseSalt(idx)^keySalt), start)})
	}
	e.rt.Wait()
	for k := range workers {
		ps.fold(&workers[k])
	}
	ps.end = e.rt.Now()
	if ps.end < end {
		// Open arrivals can drain early; the phase still occupies its slot.
		ps.end = end
	}
	return ps
}

// eviction is one scheduled preemption of a closed-loop worker, with
// times resolved to absolute virtual time.
type eviction struct {
	at      time.Duration // absolute fire time
	restore time.Duration // reprovisioning delay before the successor boots
}

// evictionsFor resolves the spec's preemptions for worker k against a
// phase window: `at` is phase-relative in the spec (so quick-mode
// duration scaling cannot push it past the end), and any closed phase
// the worker participates in is subject to it.
func (e *engine) evictionsFor(k int, start, end time.Duration) []eviction {
	if e.sp.Faults == nil {
		return nil
	}
	var evs []eviction
	for _, pr := range e.sp.Faults.Preemptions {
		if pr.Worker != k {
			continue
		}
		at := start + pr.At
		if at < end {
			evs = append(evs, eviction{at: at, restore: pr.RestoreAfter})
		}
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
	return evs
}

// worker is one generation of a closed-loop client. Each turn draws an op
// and a key, makes the call, records the outcome in the worker's tally and
// thinks, until the phase ends. On eviction the worker serializes its
// cursor (insert sequence, queue claims, both PRNG positions) through the
// snapshot codec, starts the successor generation, and ends; the successor
// sleeps out the reprovisioning delay, then continues from the blob on a
// NEW client — fresh NIC, fresh host — like a spot instance reprovisioned
// elsewhere, in the same tally. Undeleted claims ride along, so visibility
// timeouts keep running across the eviction and stale deletes surface as
// misses.
type worker struct {
	ps   *phaseStats
	t    *tally
	name string // the client's; a successor's process is <name>-gen<gen>
	gen  int
	end  time.Duration
	evs  []eviction
	rng  *sim.Rand
	ch   *chooser
	blob []byte        // a successor's predecessor, until it has booted
	boot time.Duration // a successor's reprovisioning delay, until slept
	kind int           // the turn's op, an index into the phase's op mix
	busy bool          // the turn's call is in flight
	call
}

func (w *worker) Resume(p Proc) {
	ps := w.ps
	if w.busy { // the turn's call is over
		w.busy = false
		if w.err != nil {
			ps.failed(w.err)
		} else {
			w.t.record(w.kind, w.miss, ps.start, w.began, p.Now())
		}
		if think := ps.phase.Arrival.Think; think > 0 {
			p.After(think, w)
			return
		}
	}
	if w.blob != nil {
		if d := w.boot; d > 0 {
			w.boot = 0
			p.After(d, w)
			return
		}
		proc := fmt.Sprintf("%s-gen%d", w.name, w.gen)
		st, rng, ch, err := unmarshalWorker(w.blob, w.e.dial(proc), ps.phase.Keys, ps.start)
		if err != nil {
			panic(fmt.Sprintf("scenario: %s: %v", proc, err))
		}
		w.blob, w.st, w.rng, w.ch = nil, st, rng, ch
	}
	if p.Now() >= w.end {
		return
	}
	if len(w.evs) > 0 && p.Now() >= w.evs[0].at {
		next := &worker{ps: ps, t: w.t, name: w.name, gen: w.gen + 1, end: w.end, evs: w.evs[1:],
			blob: marshalWorker(w.st, w.rng, w.ch), boot: w.evs[0].restore, call: call{e: w.e, ph: w.ph}}
		ps.mu.Lock()
		ps.preempted++
		ps.mu.Unlock()
		w.e.rt.Go(fmt.Sprintf("%s-gen%d", next.name, next.gen), next)
		return
	}
	var key int
	w.kind, key = ps.choose(w.rng, w.ch, p.Now())
	w.busy = true
	w.start(p, ps.ops[w.kind].code, key, w)
}

// dispatcher is an open arrival process: it draws inter-arrival gaps —
// Poisson, or a burst train's period — and starts one op process per
// arrival, round-robining ops over the client pool.
type dispatcher struct {
	e      *engine
	ps     *phaseStats
	states []*clientState
	end    time.Duration
	rng    *sim.Rand
	ch     *chooser
	slept  bool // a Poisson gap is behind it
}

func (d *dispatcher) Resume(p Proc) {
	arr := &d.ps.phase.Arrival
	if b := arr.Burst; b != nil { // Size simultaneous ops at phase start, then every Every until the phase ends
		if p.Now() >= d.end {
			return
		}
		for j := 0; j < b.Size; j++ {
			d.spawnOp(p)
		}
		p.After(b.Every, d)
		return
	}
	if d.slept {
		if p.Now() >= d.end {
			return
		}
		d.spawnOp(p)
	}
	d.slept = true
	lam := arr.Rate
	if di := arr.Diurnal; di != nil {
		t := (p.Now() - d.ps.start).Seconds()
		lam *= 1 + di.Amplitude*math.Sin(2*math.Pi*t/di.Period.Seconds())
	}
	if lam < 1e-9 {
		// Rate bottomed out (amplitude 1 trough): idle briefly and
		// re-evaluate the sinusoid.
		p.After(50*time.Millisecond, d)
		return
	}
	p.After(time.Duration(d.rng.ExpFloat64()/lam*float64(time.Second)), d)
}

// spawnOp is one open arrival: the dispatcher draws the op and starts a
// process that makes it.
func (d *dispatcher) spawnOp(p Proc) {
	ps := d.ps
	kind, key := ps.choose(d.rng, d.ch, p.Now())
	st := d.states[ps.dispatched%len(d.states)]
	name := fmt.Sprintf("%s-op%d", ps.phase.Name, ps.dispatched)
	ps.dispatched++
	d.e.rt.Go(name, &arrival{kind: kind, key: key, call: call{e: d.e, st: st, ph: &ps.phase}, ps: ps})
}

// arrival is an open arrival's op process: it makes the call and records
// the outcome in the phase's tally.
type arrival struct {
	ps        *phaseStats
	kind, key int
	call
}

func (a *arrival) Resume(p Proc) {
	ps := a.ps
	if a.then == nil { // the process starts
		a.start(p, ps.ops[a.kind].code, a.key, a)
		return
	}
	if a.err != nil {
		ps.failed(a.err)
		return
	}
	ps.mu.Lock()
	ps.record(a.kind, a.miss, ps.start, a.began, p.Now())
	ps.mu.Unlock()
}

// choose draws the next (index into the op mix, key index) pair.
func (ps *phaseStats) choose(rng *sim.Rand, ch *chooser, now time.Duration) (int, int) {
	v := rng.Intn(ps.totalWeight)
	kind := 0
	for i, ow := range ps.phase.Ops {
		if v < ow.Weight {
			kind = i
			break
		}
		v -= ow.Weight
	}
	return kind, ch.next(ps.ops[kind].keys, now)
}

// keyspace returns the record population the op addresses.
func (e *engine) keyspace(ph *Phase, op string) int {
	switch opService(op) {
	case "table":
		for _, t := range e.sp.Setup.Tables {
			if t.Name == ph.Target.Table {
				return t.Keys
			}
		}
	case "blob":
		for _, ct := range e.sp.Setup.Containers {
			if ct.Name == ph.Target.Container {
				if ct.Blobs > 0 {
					return ct.Blobs
				}
				return 1
			}
		}
	}
	return 1 // queues are keyless
}

// chooser implements the key distributions.
type chooser struct {
	spec   KeyDist
	rng    *sim.Rand
	zipf   *workload.Zipf
	flipAt time.Duration // absolute virtual time; 0 = never
}

func newChooser(spec KeyDist, rng *sim.Rand, phaseStart time.Duration) *chooser {
	c := &chooser{spec: spec, rng: rng}
	switch spec.Dist {
	case "zipfian", "hotflip":
		c.zipf = workload.NewZipf(rng, spec.Theta)
	}
	if spec.Dist == "hotflip" {
		c.flipAt = phaseStart + spec.FlipAt
	}
	return c
}

func (c *chooser) next(n int, now time.Duration) int {
	if n <= 1 {
		if c.zipf == nil {
			return 0
		}
		// Keep the stream position moving so hotflip/zipfian draws stay
		// aligned regardless of population.
		c.zipf.Next(2)
		return 0
	}
	switch c.spec.Dist {
	case "zipfian":
		return c.zipf.Next(n)
	case "hotflip":
		rank := c.zipf.Next(n)
		if c.flipAt > 0 && now >= c.flipAt {
			return n - 1 - rank
		}
		return rank
	default:
		return c.rng.Intn(n)
	}
}

// opCode is an op of the vocabulary as a small integer, its index in
// opKinds: what a worker dispatches on.
type opCode uint8

const (
	opBlobPut opCode = iota
	opBlobGet
	opQueuePut
	opQueueGet
	opQueueDelete
	opTableGet
	opTableInsert
	opTableUpdate
	opTableDelete
	opTableRMW
	opTableScan
)

// key is workload.Key(i).
func (e *engine) key(i int) string {
	if i < len(e.keyNames) {
		return e.keyNames[i]
	}
	return workload.Key(i)
}

// call is an op of the vocabulary in flight on a client of a phase: the one
// or two storage requests it makes against the phase's targets, each of
// which retries itself, and then its outcome. Expected data-dependent
// conditions (NotFound, empty queue, stale claims, conflicting inserts)
// count as misses, not errors. A closed-loop worker has one for its
// lifetime, an open arrival's op process one for its op.
type call struct {
	e      *engine
	st     *clientState
	ph     *Phase
	code   opCode
	keyIdx int
	began  time.Duration
	data   payload.Payload
	ent    tablestore.Entity // what the op writes, rewritten for each op
	op     cloud.Op          // the request in flight, then its answer
	second bool              // the op's second request is in flight
	miss   bool
	err    error
	then   Cont // goes on once the op is over
}

// start makes op code on key keyIdx, as the last act of p's Cont; then
// goes on once the op is over, with its outcome in miss and err.
func (c *call) start(p Proc, code opCode, keyIdx int, then Cont) {
	c.code, c.keyIdx, c.began, c.then, c.second, c.miss, c.err = code, keyIdx, p.Now(), then, false, false, nil
	c.data = payload.Synthetic(uint64(c.e.seed)^uint64(keyIdx)*0x9E3779B97F4A7C15, int64(c.ph.PayloadKB)*storecommon.KB)
	target, key := &c.ph.Target, c.e.key(keyIdx)
	switch code {
	case opBlobPut:
		c.issue(p, cloud.Op{Kind: cloud.OpUploadBlockBlob, Name: target.Container, Key: key, Data: c.data})
	case opBlobGet:
		c.issue(p, cloud.Op{Kind: cloud.OpDownload, Name: target.Container, Key: key})
	case opQueuePut:
		c.issue(p, cloud.Op{Kind: cloud.OpPutMessage, Name: target.Queue, Data: c.data})
	case opQueueGet:
		c.issue(p, cloud.Op{Kind: cloud.OpGetMessage, Name: target.Queue, TTL: claimVisibility})
	case opQueueDelete:
		if cm, ok := c.st.takeClaim(); ok {
			c.second = true
			c.issue(p, cloud.Op{Kind: cloud.OpDeleteMessage, Name: target.Queue, ID: cm.id, PopReceipt: cm.receipt})
		} else { // nothing claimed yet: claim-and-delete in one op
			c.issue(p, cloud.Op{Kind: cloud.OpGetMessage, Name: target.Queue, TTL: claimVisibility})
		}
	case opTableGet, opTableRMW:
		c.issue(p, cloud.Op{Kind: cloud.OpGetEntity, Name: target.Table, Key: key, ID: "row"})
	case opTableInsert:
		c.issue(p, cloud.Op{Kind: cloud.OpInsertEntity, Name: target.Table, Key: key,
			Ent: c.entity(key, fmt.Sprintf("r%d", c.st.nextInsert()))})
	case opTableUpdate:
		c.issue(p, cloud.Op{Kind: cloud.OpUpdateEntity, Name: target.Table, Key: key, Ent: c.entity(key, "row"), IfMatch: storecommon.ETagAny})
	case opTableDelete:
		c.issue(p, cloud.Op{Kind: cloud.OpDeleteEntity, Name: target.Table, Key: key, ID: "row", IfMatch: storecommon.ETagAny})
	case opTableScan:
		c.issue(p, cloud.Op{Kind: cloud.OpQueryEntities, Name: target.Table, Key: key, Filter: "PartitionKey ge '" + key + "'", Top: scanTop})
	default:
		panic(fmt.Sprintf("scenario: unknown op code %d", code))
	}
}

func (c *call) issue(p Proc, op cloud.Op) {
	c.op = op
	c.st.store.Start(p, &c.op, c)
}

// Resume classifies the answer to the request just made, and makes the
// op's second request or goes on with then.
func (c *call) Resume(p Proc) {
	err, key := c.op.Err, c.e.key(c.keyIdx)
	notFound := storecommon.IsNotFound(err)
	switch c.code {
	case opBlobGet, opTableGet, opTableUpdate:
		c.miss = notFound
	case opQueueGet:
		if err == nil && c.op.OK {
			c.st.addClaim(claim{id: c.op.Msg.ID, receipt: c.op.Msg.PopReceipt})
		}
		c.miss = err == nil && !c.op.OK
	case opQueueDelete:
		if !c.second { // the claim of a claim-and-delete
			if err != nil || !c.op.OK {
				c.miss = err == nil
				break
			}
			cm, _ := c.st.takeClaim(claim{id: c.op.Msg.ID, receipt: c.op.Msg.PopReceipt})
			c.second = true
			c.issue(p, cloud.Op{Kind: cloud.OpDeleteMessage, Name: c.ph.Target.Queue, ID: cm.id, PopReceipt: cm.receipt})
			return
		}
		// A claim that expired has been redelivered — at-least-once in
		// action.
		c.miss = notFound || storecommon.IsPreconditionFailed(err)
	case opTableInsert:
		c.miss = storecommon.IsConflict(err)
		if err == nil {
			c.st.inserted()
		}
	case opTableDelete:
		if !c.second {
			// A missing row is a miss, recreated regardless: keep the
			// population stable.
			c.miss = notFound
			if err != nil && !notFound {
				break
			}
			c.second = true
			c.issue(p, cloud.Op{Kind: cloud.OpInsertEntity, Name: c.ph.Target.Table, Key: key, Ent: c.entity(key, "row")})
			return
		}
		if storecommon.IsConflict(err) {
			err = nil // someone else recreated it first
		}
		c.err = err // whether or not the delete missed
	case opTableRMW:
		if !c.second {
			c.miss = notFound
			if err != nil {
				break
			}
			c.second = true
			c.issue(p, cloud.Op{Kind: cloud.OpUpdateEntity, Name: c.ph.Target.Table, Key: key, Ent: c.entity(key, "row"), IfMatch: storecommon.ETagAny})
			return
		}
		c.miss = notFound || storecommon.IsPreconditionFailed(err)
	case opTableScan:
		c.miss = err == nil && len(c.op.Res.Entities) == 0
	}
	if !c.miss {
		c.err = err
	}
	c.then.Resume(p)
}

// entity rewrites the call's entity to (pk, rk), carrying the op's data.
// It is safe to reuse: a call has one request in flight, and the store
// files a copy of what it is sent.
func (c *call) entity(pk, rk string) *tablestore.Entity {
	if c.ent.Props == nil {
		c.ent.Props = map[string]tablestore.Value{}
	}
	c.ent.PartitionKey, c.ent.RowKey = pk, rk
	c.ent.Props["Data"] = tablestore.Binary(c.data)
	return &c.ent
}

// RenderMetrics formats the flat metric map sorted by name — the
// deterministic form tests and -o exports rely on.
func RenderMetrics(m map[string]float64) string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "%s = %s\n", k, trimFloat(m[k]))
	}
	return b.String()
}
