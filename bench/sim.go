package main

import (
	_ "embed"
	"fmt"
	"time"

	"azurebench/internal/core"
	"azurebench/internal/scenario"
)

// simFigures regenerates every registered experiment at quick scale, the
// way `azurebench -quick` does: one fresh suite, the 16 experiments in
// presentation order, one caller.
type simFigures struct {
	cfg     core.Config
	exps    []core.Experiment
	buf     *spanBuf
	clk     clock
	digests []string  // per experiment, from the warm-up
	walls   [][]int64 // per experiment, one sample per timed repetition
	reps    int
	bad     []string
}

func (w *simFigures) setup(seed int64, sz sizes, tr *tracer) error {
	w.cfg = sz.figures
	w.cfg.Seed = seed
	w.exps = core.Experiments()
	w.clk = tr.clk
	if tr.on {
		w.buf = newSpanBuf(tr.clk, 0, len(w.exps)+1)
		tr.bufs = []*spanBuf{w.buf}
	}
	w.walls = make([][]int64, len(w.exps))
	for i := range w.walls {
		w.walls[i] = make([]int64, 0, 64)
	}
	// The warm-up regenerates every experiment at a reduced scale.
	warm := sz.figuresWarm
	warm.Seed = seed
	suite := core.NewSuite(warm)
	for _, e := range w.exps {
		e.Run(suite)
	}
	return nil
}

// pauseAfter is how much timed work a repetition of sim-figures does before
// it pauses at the next experiment boundary. The repetition's wall time is
// the sum of its experiments' and excludes the pauses.
const pauseAfter = time.Second

func (w *simFigures) rep(traced bool, pause func()) (repResult, error) {
	w.reps++
	reports := make([]*core.Report, len(w.exps))
	var wall, sincePause int64
	var root int32
	if traced {
		w.buf.reset(true)
		w.buf.op = int64(w.reps)
		root = w.buf.open(-1, layerLoadgen, "regenerate", w.clk.now())
	}
	suite := core.NewSuite(w.cfg)
	for i, e := range w.exps {
		e0 := w.clk.now()
		reports[i] = e.Run(suite)
		e1 := w.clk.now()
		w.walls[i] = append(w.walls[i], e1-e0)
		wall += e1 - e0
		sincePause += e1 - e0
		if traced {
			w.buf.close(w.buf.open(root, layerCore, e.ID, e0), e1)
		}
		if sincePause >= int64(pauseAfter) && i < len(w.exps)-1 {
			pause()
			sincePause = 0
		}
	}
	if traced {
		w.buf.close(root, w.clk.now())
	}
	rr := repResult{wall: time.Duration(wall), ops: len(w.exps), opsWall: time.Duration(wall), attempted: len(w.exps)}

	// Every repetition must reproduce the first one's reports exactly.
	// Digests are taken here, after the clock has stopped.
	for i, r := range reports {
		d := r.CSVDigest()
		if w.reps == 1 {
			w.digests = append(w.digests, d)
		} else if d != w.digests[i] {
			rr.failed++
			w.bad = append(w.bad, fmt.Sprintf("%s: digest %s in repetition %d, %s in the first", w.exps[i].ID, d[:12], w.reps, w.digests[i][:12]))
		}
	}
	return rr, nil
}

func (w *simFigures) finish(m metrics) (string, error) {
	for i, e := range w.exps {
		xs := make([]float64, len(w.walls[i]))
		for j, ns := range w.walls[i] {
			xs[j] = float64(ns) / 1e9
		}
		m.set("core."+e.ID+".wall_s", median(xs), "s")
	}
	if len(w.bad) > 0 {
		return "", fmt.Errorf("%d digest mismatches, first: %s", len(w.bad), w.bad[0])
	}
	s := fmt.Sprintf("all %d repetitions produced these CSV digests:", w.reps)
	for i, e := range w.exps {
		s += fmt.Sprintf(" %s=%s", e.ID, w.digests[i][:8])
	}
	return s, nil
}

func (w *simFigures) describe() string {
	return fmt.Sprintf("%d experiments at quick scale, workers %v", len(w.exps), w.cfg.Workers)
}

func (w *simFigures) close() {}

//go:embed sim-closedloop.yaml
var closedLoopYAML []byte

// simClosedLoop runs the bench-owned scenario through scenario.Run, the
// path `azurebench -scenario file.yaml` takes.
type simClosedLoop struct {
	cfg    core.Config
	spec   *scenario.Spec
	buf    *spanBuf
	clk    clock
	digest string
	ops    int
	perOp  []float64 // wall µs per simulated operation, per repetition
	reps   int
	bad    []string
}

func (w *simClosedLoop) setup(seed int64, sz sizes, tr *tracer) error {
	sp, err := scenario.Parse(closedLoopYAML)
	if err != nil {
		return err
	}
	sp.Phases[0].Duration = sz.virtualWarm
	w.spec = sp
	w.cfg = core.DefaultConfig()
	sp.Apply(&w.cfg)
	w.cfg.Seed = seed
	w.clk = tr.clk
	if tr.on {
		w.buf = newSpanBuf(tr.clk, 0, 2)
		tr.bufs = []*spanBuf{w.buf}
	}
	if _, _, err := w.simulate(false); err != nil {
		return err
	}
	sp.Phases[0].Duration = sz.virtual
	return nil
}

func (w *simClosedLoop) simulate(traced bool) (repResult, *scenario.Result, error) {
	t0 := w.clk.now()
	res, err := scenario.Run(core.NewSuite(w.cfg), w.spec, scenario.Options{})
	t1 := w.clk.now()
	wall := time.Duration(t1 - t0)
	if traced {
		w.buf.reset(true)
		w.buf.op = int64(w.reps)
		root := w.buf.open(-1, layerLoadgen, "simulate", t0)
		w.buf.close(w.buf.open(root, layerScenario, w.spec.Name, t0), t1)
		w.buf.close(root, t1)
	}
	if err != nil {
		return repResult{}, nil, err
	}
	ops := int(res.Metrics["run.ops"])
	return repResult{
		wall: wall, ops: ops, opsWall: wall,
		attempted: ops + int(res.Metrics["run.errors"]),
		failed:    int(res.Metrics["run.errors"]),
	}, res, nil
}

func (w *simClosedLoop) rep(traced bool, _ func()) (repResult, error) {
	w.reps++
	rr, res, err := w.simulate(traced)
	if err != nil {
		return rr, err
	}
	// Every repetition must reproduce the first one exactly.
	d := res.Report.CSVDigest()
	if w.reps == 1 {
		w.digest, w.ops = d, rr.ops
	}
	if d != w.digest {
		w.bad = append(w.bad, fmt.Sprintf("repetition %d: digest %s, first %s", w.reps, d[:12], w.digest[:12]))
	}
	if rr.ops != w.ops {
		w.bad = append(w.bad, fmt.Sprintf("repetition %d: %d operations, first %d", w.reps, rr.ops, w.ops))
	}
	if !res.Passed() {
		w.bad = append(w.bad, fmt.Sprintf("repetition %d: scenario SLO failed", w.reps))
	}
	w.perOp = append(w.perOp, us(int64(rr.wall))/float64(rr.ops))
	return rr, nil
}

func (w *simClosedLoop) finish(m metrics) (string, error) {
	perOp := median(w.perOp)
	m.set("scenario.wall_us_per_op", perOp, "us")
	m.set("scenario.sim_ops_per_s", 1e6/perOp, "ops/s")
	if len(w.bad) > 0 {
		return "", fmt.Errorf("%d check failures, first: %s", len(w.bad), w.bad[0])
	}
	return fmt.Sprintf("all %d repetitions: %d simulated operations, 0 errors, CSV digest %s", w.reps, w.ops, w.digest[:16]), nil
}

func (w *simClosedLoop) describe() string {
	ph := w.spec.Phases[0]
	return fmt.Sprintf("%d simulated clients, %v virtual per repetition", ph.Clients, ph.Duration)
}

func (w *simClosedLoop) close() {}
