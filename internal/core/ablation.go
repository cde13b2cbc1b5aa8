package core

import (
	"fmt"
	"time"

	"azurebench/internal/metrics"
	"azurebench/internal/model"
	"azurebench/internal/netmodel"
)

// RunNetModel cross-validates the DES against the analytical max-min
// fair-share model: for every worker count, the measured aggregate
// block-blob download throughput (Figure 4's download phase) is plotted
// next to the fluid-flow prediction for the same topology (per-VM NIC
// links, a pool of read replicas, the account bandwidth cap).
func (s *Suite) RunNetModel() *Report {
	wall := wallStopwatch()
	fig := metrics.Figure{
		Title:  "Ablation: DES-measured vs max-min fair-share predicted download throughput",
		XLabel: "workers",
		YLabel: "MB/s (aggregate)",
	}
	prm := s.cfg.Params
	blobBytes := int64(s.cfg.BlobMB) << 20
	workers := sortedCopy(s.cfg.Workers)
	pts := sweep(s, len(workers), func(i int) *point { return s.runBlobPoint(workers[i]) })
	for i, w := range workers {
		measured := metrics.MBps(blobBytes*int64(w), pts[i].st[phBlockFull].makespan)
		fig.AddPoint("DES measured", float64(w), measured)

		flows := netmodel.BlobDownloadScenario(w,
			float64(s.cfg.VM.NICBps), prm.BlobServerRate,
			prm.AccountBandwidthBps, prm.BlobReadReplicas)
		if err := netmodel.Solve(flows); err != nil {
			panic(err)
		}
		fig.AddPoint("fair-share predicted", float64(w), netmodel.Aggregate(flows)/(1<<20))
	}
	return finish(s, &Report{
		ID:      "netmodel",
		Title:   "Network-model cross-check (DES vs analytical max-min fair share)",
		Figures: []metrics.Figure{fig},
		Notes: []string{
			"the fluid model ignores per-request overheads, so the DES sits slightly below it; both saturate at readReplicas × 60 MB/s",
			"the crossover from NIC-bound to replica-bound falls at pool/NIC ≈ 14 workers for Small VMs",
		},
		Wall: wall(),
	}, pts)
}

// RunAblation quantifies the design choices DESIGN.md calls out by
// re-running key phases with one model knob changed at a time:
// replication factor (write amplification), read-replica fan-out
// (download scaling), table partition-server count (the "flat till 4"
// knee), and the 16 KB Get quirk.
func (s *Suite) RunAblation() *Report {
	wall := wallStopwatch()
	cfg := s.cfg
	w := 16
	for _, x := range cfg.Workers {
		if x > w {
			w = x
		}
	}
	if w > 32 {
		w = 32 // ablations need contrast, not the full sweep
	}
	blobBytes := int64(cfg.BlobMB) << 20

	// The 13 points, one model knob changed in each, in figure order.
	var points []func() *point
	knob := func(mutate func(*paramsAlias), run func(sub *Suite) *point) {
		points = append(points, func() *point { return run(s.withParams(mutate)) })
	}
	replicas := []int{1, 2, 3}
	for _, n := range replicas {
		knob(func(p *paramsAlias) { p.Replicas, p.BlobReadReplicas = n, n },
			func(sub *Suite) *point { return sub.runBlobPoint(w) })
	}
	tableServers := []int{2, 4, 8, 16}
	for _, n := range tableServers {
		knob(func(p *paramsAlias) { p.TableServers = n },
			func(sub *Suite) *point { return sub.runTablePoint(w, 64) })
	}
	quirkSizesKB := []int{8, 16, 32}
	for _, enabled := range []bool{true, false} {
		for _, sizeKB := range quirkSizesKB {
			knob(func(p *paramsAlias) { p.Quirk16KBGet = enabled },
				func(sub *Suite) *point {
					return sub.runQueuePerWorkerPoint(4, sizeKB, fmt.Sprintf("ablation-quirk/%dKB", sizeKB))
				})
		}
	}
	pts := sweep(s, len(points), func(i int) *point { return points[i]() })
	next := 0
	take := func() map[string]phaseStats { next++; return pts[next-1].st }

	repl := metrics.Figure{
		Title:  "Ablation: write replication factor vs upload throughput",
		XLabel: "replicas",
		YLabel: "MB/s (aggregate)",
	}
	readRep := metrics.Figure{
		Title:  "Ablation: read replicas vs download throughput",
		XLabel: "read replicas",
		YLabel: "MB/s (aggregate)",
	}
	for _, n := range replicas {
		st := take()
		repl.AddPoint("PageUpload", float64(n), metrics.MBps(blobBytes, st[phPageUpload].makespan))
		repl.AddPoint("BlockUpload", float64(n), metrics.MBps(blobBytes, st[phBlockUp].makespan))
		readRep.AddPoint("BlockDownload", float64(n), metrics.MBps(blobBytes*int64(w), st[phBlockFull].makespan))
	}

	tableSrv := metrics.Figure{
		Title:  "Ablation: table partition servers vs insert phase time",
		XLabel: "table servers",
		YLabel: fmt.Sprintf("seconds (mean per worker, %d workers, 64KB)", w),
	}
	for _, n := range tableServers {
		tableSrv.AddPoint("insert", float64(n), take()[phTabInsert].mean.Seconds())
	}

	quirk := metrics.Figure{
		Title:  "Ablation: the 16 KB Get anomaly (model quirk on vs off)",
		XLabel: "message size KB",
		YLabel: "ms (mean per get+delete)",
	}
	for _, series := range []string{"quirk on (paper's observation)", "quirk off"} {
		for _, sizeKB := range quirkSizesKB {
			stats := take()[phQueueGet]
			quirk.AddPoint(series, float64(sizeKB), float64(stats.opMean())/float64(time.Millisecond))
		}
	}

	return finish(s, &Report{
		ID:      "ablation",
		Title:   "Model ablations (replication, read fan-out, table servers, 16KB quirk)",
		Figures: []metrics.Figure{repl, readRep, tableSrv, quirk},
		Notes: []string{
			"write throughput falls as the replication factor rises; read throughput rises with read replicas",
			"doubling table partition servers pushes the contention knee out proportionally",
			fmt.Sprintf("run at %d workers; storage volumes as configured (%d MB blobs)", w, cfg.BlobMB),
		},
		Wall: wall(),
	}, pts)
}

// paramsAlias names the model parameter struct for the ablation closures.
type paramsAlias = model.Params

// withParams returns a view of the suite with mutated model parameters
// for one data point to be built on. It shares what a point needs from its
// suite — the trace log, the token pool, the shared points, an armed
// checkpoint — and owns nothing: whatever the point produces goes back to
// s's runner with it.
func (s *Suite) withParams(mutate func(*paramsAlias)) *Suite {
	sub := &Suite{cfg: s.cfg, traceLog: s.traceLog, slots: s.slots, points: s.points, ckpt: s.ckpt, pointHook: s.pointHook}
	mutate(&sub.cfg.Params)
	return sub
}
