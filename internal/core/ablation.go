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
	for _, w := range sortedCopy(s.cfg.Workers) {
		st := s.runBlobPoint(w)
		measured := metrics.MBps(blobBytes*int64(w), st[phBlockFull].makespan)
		fig.AddPoint("DES measured", float64(w), measured)

		flows := netmodel.BlobDownloadScenario(w,
			float64(s.cfg.VM.NICBps), prm.BlobServerRate,
			prm.AccountBandwidthBps, prm.BlobReadReplicas)
		if err := netmodel.Solve(flows); err != nil {
			panic(err)
		}
		fig.AddPoint("fair-share predicted", float64(w), netmodel.Aggregate(flows)/(1<<20))
	}
	return &Report{
		ID:      "netmodel",
		Title:   "Network-model cross-check (DES vs analytical max-min fair share)",
		Figures: []metrics.Figure{fig},
		Notes: []string{
			"the fluid model ignores per-request overheads, so the DES sits slightly below it; both saturate at readReplicas × 60 MB/s",
			"the crossover from NIC-bound to replica-bound falls at pool/NIC ≈ 14 workers for Small VMs",
		},
		Wall: wall(),
	}
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
	for replicas := 1; replicas <= 3; replicas++ {
		sub := s.withParams(func(p *paramsAlias) {
			p.Replicas = replicas
			p.BlobReadReplicas = replicas
		})
		st := sub.runBlobPoint(w)
		repl.AddPoint("PageUpload", float64(replicas), metrics.MBps(blobBytes, st[phPageUpload].makespan))
		repl.AddPoint("BlockUpload", float64(replicas), metrics.MBps(blobBytes, st[phBlockUp].makespan))
		readRep.AddPoint("BlockDownload", float64(replicas), metrics.MBps(blobBytes*int64(w), st[phBlockFull].makespan))
	}

	tableSrv := metrics.Figure{
		Title:  "Ablation: table partition servers vs insert phase time",
		XLabel: "table servers",
		YLabel: fmt.Sprintf("seconds (mean per worker, %d workers, 64KB)", w),
	}
	for _, servers := range []int{2, 4, 8, 16} {
		sub := s.withParams(func(p *paramsAlias) { p.TableServers = servers })
		st := sub.runTablePoint(w, 64)
		tableSrv.AddPoint("insert", float64(servers), st[phTabInsert].mean.Seconds())
	}

	quirk := metrics.Figure{
		Title:  "Ablation: the 16 KB Get anomaly (model quirk on vs off)",
		XLabel: "message size KB",
		YLabel: "ms (mean per get+delete)",
	}
	for _, enabled := range []bool{true, false} {
		series := "quirk off"
		if enabled {
			series = "quirk on (paper's observation)"
		}
		sub := s.withParams(func(p *paramsAlias) { p.Quirk16KBGet = enabled })
		for _, sizeKB := range []int{8, 16, 32} {
			st, _ := sub.runQueuePerWorkerPoint(4, sizeKB, fmt.Sprintf("ablation-quirk/%dKB", sizeKB))
			stats := st[phQueueGet]
			quirk.AddPoint(series, float64(sizeKB), float64(stats.ops.Mean())/float64(time.Millisecond))
		}
	}

	return &Report{
		ID:      "ablation",
		Title:   "Model ablations (replication, read fan-out, table servers, 16KB quirk)",
		Figures: []metrics.Figure{repl, readRep, tableSrv, quirk},
		Notes: []string{
			"write throughput falls as the replication factor rises; read throughput rises with read replicas",
			"doubling table partition servers pushes the contention knee out proportionally",
			fmt.Sprintf("run at %d workers; storage volumes as configured (%d MB blobs)", w, cfg.BlobMB),
		},
		Wall: wall(),
	}
}

// paramsAlias names the model parameter struct for the ablation closures.
type paramsAlias = model.Params

// withParams clones the suite with mutated model parameters. The clone
// shares the parent's trace log and sampler bag so ablation observability
// lands in the same exports.
func (s *Suite) withParams(mutate func(*paramsAlias)) *Suite {
	cfg := s.cfg
	mutate(&cfg.Params)
	sub := NewSuite(cfg)
	sub.traceLog = s.traceLog
	sub.samplers = s.samplers
	sub.partitions = s.partitions
	sub.kernel = s.kernel
	sub.ckpt = s.ckpt
	return sub
}
