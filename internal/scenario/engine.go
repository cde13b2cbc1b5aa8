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
	st := e.dial("setup")
	var err error
	e.rt.Go("setup", func(p Proc) { err = e.preload(p, st) })
	e.rt.Wait()
	if err != nil {
		return fmt.Errorf("scenario %q: setup: %w", e.sp.Name, err)
	}
	return nil
}

// preload is setup's process body. The first persistent error stops it;
// an entity that already exists is not an error, so a spec can be re-run
// against a long-lived store.
func (e *engine) preload(p Proc, st Store) error {
	for _, t := range e.sp.Setup.Tables {
		if err := st.CreateTable(p, t.Name); err != nil {
			return fmt.Errorf("create table %s: %w", t.Name, err)
		}
		for i := 0; i < t.Keys; i++ {
			ent := entity(workload.Key(i), "row",
				payload.Synthetic(uint64(e.seed)+uint64(i), int64(t.EntityKB)*storecommon.KB))
			if err := st.TableInsert(p, t.Name, ent); err != nil && !storecommon.IsConflict(err) {
				return fmt.Errorf("insert entity: %w", err)
			}
		}
	}
	for _, q := range e.sp.Setup.Queues {
		if err := st.CreateQueue(p, q.Name); err != nil {
			return fmt.Errorf("create queue %s: %w", q.Name, err)
		}
		for i := 0; i < q.Preload; i++ {
			body := payload.Synthetic(uint64(e.seed)^uint64(i)*0x9E3779B97F4A7C15, int64(q.MessageKB)*storecommon.KB)
			if err := st.QueuePut(p, q.Name, body); err != nil {
				return fmt.Errorf("preload message: %w", err)
			}
		}
	}
	for _, ct := range e.sp.Setup.Containers {
		if err := st.CreateContainer(p, ct.Name); err != nil {
			return fmt.Errorf("create container %s: %w", ct.Name, err)
		}
		for i := 0; i < ct.Blobs; i++ {
			data := payload.Synthetic(uint64(e.seed)^uint64(i)*0x9E3779B97F4A7C15, int64(ct.BlobKB)*storecommon.KB)
			if err := st.BlobPut(p, ct.Name, workload.Key(i), data); err != nil {
				return fmt.Errorf("preload blob: %w", err)
			}
		}
	}
	return nil
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
	switch ph.Arrival.Kind {
	case "closed":
		workers = make([]tally, len(states))
		for k := range states {
			st := states[k]
			workers[k] = newTally(ph)
			rng := sim.NewRand(e.phaseSalt(idx) ^ (int64(k+1) << 20))
			ch := newChooser(ph.Keys, sim.NewRand(e.phaseSalt(idx)^(int64(k+1)<<21)), start)
			evs := e.evictionsFor(k, start, end)
			e.spawnClosedWorker(fmt.Sprintf("%s-c%d", ph.Name, k), 0, ps, &workers[k], end, evs,
				func(Proc) (*clientState, *sim.Rand, *chooser, error) { return st, rng, ch, nil })
		}
	case "poisson":
		e.dispatchOpen(idx, ps, states, end, func(p Proc, rng *sim.Rand) time.Duration {
			lam := ph.Arrival.Rate
			if d := ph.Arrival.Diurnal; d != nil {
				t := (p.Now() - start).Seconds()
				lam *= 1 + d.Amplitude*math.Sin(2*math.Pi*t/d.Period.Seconds())
			}
			if lam < 1e-9 {
				// Rate bottomed out (amplitude 1 trough): idle briefly and
				// re-evaluate the sinusoid.
				return 50 * time.Millisecond
			}
			return time.Duration(rng.ExpFloat64() / lam * float64(time.Second))
		})
	case "burst":
		e.dispatchBurst(idx, ps, states, end)
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

// spawnClosedWorker runs one generation of a closed-loop client. boot
// produces the worker's state inside the new process: generation 0 hands
// over the pre-built state, restored generations sleep out the
// reprovisioning delay and then deserialize the evicted predecessor's
// blob. On eviction the worker serializes its cursor (insert sequence,
// queue claims, both PRNG positions) through the snapshot codec, spawns
// the successor generation, and dies; the successor continues on a NEW
// client — fresh NIC, fresh host — like a spot instance reprovisioned
// elsewhere. Undeleted claims ride along, so visibility timeouts keep
// running across the eviction and stale deletes surface as misses.
func (e *engine) spawnClosedWorker(name string, gen int, ps *phaseStats, t *tally,
	end time.Duration, evs []eviction,
	boot func(Proc) (*clientState, *sim.Rand, *chooser, error)) {
	ph := &ps.phase
	proc := name
	if gen > 0 {
		proc = fmt.Sprintf("%s-gen%d", name, gen)
	}
	e.rt.Go(proc, func(p Proc) {
		st, rng, ch, err := boot(p)
		if err != nil {
			panic(fmt.Sprintf("scenario: %s: %v", proc, err))
		}
		call := e.newCall(st, ph)
		for p.Now() < end {
			if len(evs) > 0 && p.Now() >= evs[0].at {
				ev := evs[0]
				rest := append([]eviction(nil), evs[1:]...)
				blob := marshalWorker(st, rng, ch)
				ps.mu.Lock()
				ps.preempted++
				ps.mu.Unlock()
				// The successor runs after this worker is gone, so it
				// carries on in the same tally.
				e.spawnClosedWorker(name, gen+1, ps, t, end, rest,
					func(q Proc) (*clientState, *sim.Rand, *chooser, error) {
						if ev.restore > 0 {
							q.Sleep(ev.restore)
						}
						return unmarshalWorker(blob, e.dial(fmt.Sprintf("%s-gen%d", name, gen+1)), ph.Keys, ps.start)
					})
				return
			}
			ps.closedOp(p, call, t, rng, ch)
			if ph.Arrival.Think > 0 {
				p.Sleep(ph.Arrival.Think)
			}
		}
	})
}

// closedOp is one turn of a closed-loop worker: draw an op and a key, make
// the call, record the outcome in the worker's tally.
func (ps *phaseStats) closedOp(p Proc, call *opCall, t *tally, rng *sim.Rand, ch *chooser) {
	kind, ki := ps.choose(rng, ch, p.Now())
	began := p.Now()
	if miss, err := call.perform(p, ps.ops[kind].code, ki); err != nil {
		ps.failed(err)
	} else {
		t.record(kind, miss, ps.start, began, p.Now())
	}
}

// dispatchOpen runs an open arrival process: a dispatcher draws
// inter-arrival gaps and spawns one process per op, round-robining ops
// over the client pool.
func (e *engine) dispatchOpen(idx int, ps *phaseStats, states []*clientState,
	end time.Duration, gap func(Proc, *sim.Rand) time.Duration) {
	rng := sim.NewRand(e.phaseSalt(idx) ^ 0x0D15)
	ch := newChooser(ps.phase.Keys, sim.NewRand(e.phaseSalt(idx)^0x0D16), ps.start)
	e.rt.Go(ps.phase.Name+"-dispatch", func(p Proc) {
		for {
			p.Sleep(gap(p, rng))
			if p.Now() >= end {
				return
			}
			e.spawnOp(p, ps, states, rng, ch)
		}
	})
}

// dispatchBurst fires Size simultaneous ops at phase start and then every
// Every until the phase ends.
func (e *engine) dispatchBurst(idx int, ps *phaseStats, states []*clientState, end time.Duration) {
	b := ps.phase.Arrival.Burst
	rng := sim.NewRand(e.phaseSalt(idx) ^ 0x0D17)
	ch := newChooser(ps.phase.Keys, sim.NewRand(e.phaseSalt(idx)^0x0D18), ps.start)
	e.rt.Go(ps.phase.Name+"-dispatch", func(p Proc) {
		for p.Now() < end {
			for j := 0; j < b.Size; j++ {
				e.spawnOp(p, ps, states, rng, ch)
			}
			p.Sleep(b.Every)
		}
	})
}

// spawnOp is one open arrival: the dispatcher p draws the op and starts a
// process that makes it and records the outcome in the phase's tally.
func (e *engine) spawnOp(p Proc, ps *phaseStats, states []*clientState, rng *sim.Rand, ch *chooser) {
	kind, ki := ps.choose(rng, ch, p.Now())
	st := states[ps.dispatched%len(states)]
	name := fmt.Sprintf("%s-op%d", ps.phase.Name, ps.dispatched)
	ps.dispatched++
	e.rt.Go(name, func(q Proc) {
		began := q.Now()
		miss, err := e.newCall(st, &ps.phase).perform(q, ps.ops[kind].code, ki)
		if err != nil {
			ps.failed(err)
			return
		}
		done := q.Now()
		ps.mu.Lock()
		ps.record(kind, miss, ps.start, began, done)
		ps.mu.Unlock()
	})
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

// opCall is a worker's call record: the client and phase its operations
// go to. A closed-loop worker has one for its lifetime, an open arrival's
// op process one for its op.
type opCall struct {
	e  *engine
	st *clientState
	ph *Phase
}

func (e *engine) newCall(st *clientState, ph *Phase) *opCall {
	return &opCall{e: e, st: st, ph: ph}
}

// key is workload.Key(i).
func (e *engine) key(i int) string {
	if i < len(e.keyNames) {
		return e.keyNames[i]
	}
	return workload.Key(i)
}

// perform executes one op against the phase's targets; each of its
// storage requests retries itself. Expected data-dependent conditions
// (NotFound, empty queue, stale claims, conflicting inserts) count as
// misses, not errors.
func (c *opCall) perform(p Proc, code opCode, keyIdx int) (miss bool, err error) {
	s, st, target := c.st.store, c.st, &c.ph.Target
	data := payload.Synthetic(uint64(c.e.seed)^uint64(keyIdx)*0x9E3779B97F4A7C15, int64(c.ph.PayloadKB)*storecommon.KB)
	switch code {
	case opBlobPut:
		return false, s.BlobPut(p, target.Container, c.e.key(keyIdx), data)
	case opBlobGet:
		gerr := s.BlobGet(p, target.Container, c.e.key(keyIdx))
		if storecommon.IsNotFound(gerr) {
			return true, nil
		}
		return false, gerr
	case opQueuePut:
		return false, s.QueuePut(p, target.Queue, data)
	case opQueueGet:
		id, receipt, ok, gerr := s.QueueGet(p, target.Queue, claimVisibility)
		if gerr != nil || !ok {
			return gerr == nil, gerr
		}
		st.addClaim(claim{id: id, receipt: receipt})
		return false, nil
	case opQueueDelete:
		cm, ok := st.takeClaim()
		if !ok {
			// Nothing claimed yet: claim-and-delete in one op.
			id, receipt, got, gerr := s.QueueGet(p, target.Queue, claimVisibility)
			if gerr != nil || !got {
				return gerr == nil, gerr
			}
			cm, _ = st.takeClaim(claim{id: id, receipt: receipt})
		}
		derr := s.QueueDelete(p, target.Queue, cm.id, cm.receipt)
		if storecommon.IsNotFound(derr) || storecommon.IsPreconditionFailed(derr) {
			// The claim expired and the message was redelivered —
			// at-least-once in action.
			return true, nil
		}
		return false, derr
	case opTableGet:
		gerr := s.TableGet(p, target.Table, c.e.key(keyIdx), "row")
		if storecommon.IsNotFound(gerr) {
			return true, nil
		}
		return false, gerr
	case opTableInsert:
		ent := entity(c.e.key(keyIdx), fmt.Sprintf("r%d", st.nextInsert()), data)
		ierr := s.TableInsert(p, target.Table, ent)
		if storecommon.IsConflict(ierr) {
			return true, nil
		}
		if ierr == nil {
			st.inserted()
		}
		return false, ierr
	case opTableUpdate:
		uerr := s.TableUpdate(p, target.Table, entity(c.e.key(keyIdx), "row", data))
		if storecommon.IsNotFound(uerr) {
			return true, nil
		}
		return false, uerr
	case opTableDelete:
		derr := s.TableDelete(p, target.Table, c.e.key(keyIdx), "row")
		// A missing row is a miss, recreated regardless: keep the
		// population stable.
		miss = storecommon.IsNotFound(derr)
		if derr != nil && !miss {
			return false, derr
		}
		ierr := s.TableInsert(p, target.Table, entity(c.e.key(keyIdx), "row", data))
		if storecommon.IsConflict(ierr) {
			return miss, nil // someone else recreated it first
		}
		return miss, ierr
	case opTableRMW:
		gerr := s.TableGet(p, target.Table, c.e.key(keyIdx), "row")
		if storecommon.IsNotFound(gerr) {
			return true, nil
		}
		if gerr != nil {
			return false, gerr
		}
		uerr := s.TableUpdate(p, target.Table, entity(c.e.key(keyIdx), "row", data))
		if storecommon.IsNotFound(uerr) || storecommon.IsPreconditionFailed(uerr) {
			return true, nil
		}
		return false, uerr
	case opTableScan:
		rows, serr := s.TableScan(p, target.Table, c.e.key(keyIdx), scanTop)
		return serr == nil && rows == 0, serr
	}
	return false, fmt.Errorf("scenario: unknown op code %d", code)
}

func entity(pk, rk string, data payload.Payload) *tablestore.Entity {
	return &tablestore.Entity{
		PartitionKey: pk,
		RowKey:       rk,
		Props: map[string]tablestore.Value{
			"Data": tablestore.Binary(data),
		},
	}
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
