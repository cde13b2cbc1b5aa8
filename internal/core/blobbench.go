package core

import (
	"fmt"

	"azurebench/internal/blobstore"
	"azurebench/internal/cloud"
	"azurebench/internal/metrics"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/roles"
	"azurebench/internal/sim"
)

// Blob benchmark phases (Algorithm 1).
const (
	phPageUpload = "page-upload"
	phBlockUp    = "block-upload"
	phPageChunk  = "page-chunk"
	phBlockChunk = "block-chunk"
	phPageFull   = "page-full"
	phBlockFull  = "block-full"
)

const (
	benchContainer = "azurebench"
	pageBlobName   = "AzureBenchPageBlob"
	blockBlobName  = "AzureBenchBlockBlob"
	syncQueue      = "azurebench-sync"
)

// runBlobPoint returns the Algorithm 1 point at w workers, simulated once
// per run (fig4, fig5, netmodel and ablation read it).
func (s *Suite) runBlobPoint(w int) *point {
	return s.shared("blob", w, 0, func() *point { return s.blobPoint(w) })
}

// blobPoint executes Algorithm 1 at one worker count and returns the
// point with its per-phase aggregates in st.
//
// Deviation from the paper's pseudo-code, documented in DESIGN.md: each
// worker stages its slice of blocks under globally-unique ids, the workers
// synchronise (Algorithm 2 barrier), and then every worker issues
// PutBlockList over the full id list — the first commit promotes the
// staged blocks, later identical commits re-commit them from the committed
// list. This keeps the paper's per-worker operation count while leaving
// the blob complete for the download phases (the paper's per-worker lists
// would leave only the last worker's slice committed).
func (s *Suite) blobPoint(w int) *point {
	pt := s.newPoint()
	cfg := s.cfg
	chunk := int64(cfg.ChunkMB) << 20
	totalChunks := cfg.BlobMB / cfg.ChunkMB
	blobSize := chunk * int64(totalChunks)

	// Untimed setup: container, page blob shell, sync queue.
	pt.setup(func(p *sim.Proc, setup *cloud.Client) {
		_, err := setup.CreateContainerIfNotExists(p, benchContainer)
		must("create container", err)
		must("create page blob", setup.CreatePageBlob(p, benchContainer, pageBlobName, blobSize))
		_, err = setup.CreateQueueIfNotExists(p, syncQueue)
		must("create sync queue", err)
	})

	fullList := make([]blobstore.BlockRef, totalChunks)
	for i := range fullList {
		fullList[i] = blobstore.BlockRef{ID: fmt.Sprintf("b-%05d", i), Source: blobstore.Latest}
	}

	rng := pt.env.Rand()
	pt.run(w, func(k int, _ *cloud.Client) *role {
		start, n := split(totalChunks, w, k)
		content := payload.Synthetic(uint64(cfg.Seed)+uint64(k), chunk)
		// blob sets up a request on a blob, with no body unless the phase
		// adds one.
		blob := func(kind cloud.OpKind, name string, o *cloud.Op) {
			o.Kind, o.Name, o.Key, o.Data = kind, benchContainer, name, payload.Payload{}
		}
		timed := []phase{
			// --- Page blob upload (my slice of pages) ---
			{name: phPageUpload, what: "put page", n: n, op: func(i int, o *cloud.Op) {
				blob(cloud.OpPutPage, pageBlobName, o)
				o.Off, o.Data = int64(start+i)*chunk, content
			}},
			// --- Block blob upload: stage my slice, then commit the list ---
			{name: phBlockUp, what: "put block", n: n, op: func(i int, o *cloud.Op) {
				blob(cloud.OpPutBlock, blockBlobName, o)
				o.ID, o.Data = fullList[start+i].ID, content
			}},
			{name: phBlockUp, what: "put block list", n: 1, op: func(_ int, o *cloud.Op) {
				blob(cloud.OpPutBlockList, blockBlobName, o)
				o.Refs = fullList
			}},
			// --- Random page-wise download (Figure 5) ---
			{name: phPageChunk, what: "get page", n: cfg.ChunkReads, op: func(_ int, o *cloud.Op) {
				blob(cloud.OpGetPage, pageBlobName, o)
				o.Off, o.N = int64(rng.Intn(totalChunks))*chunk, chunk
			}},
			// --- Sequential block-wise download (Figure 5) ---
			{name: phBlockChunk, what: "get block", n: cfg.ChunkReads, op: func(i int, o *cloud.Op) {
				blob(cloud.OpGetBlock, blockBlobName, o)
				o.Off = int64(i % totalChunks)
			}},
			// --- Entire page blob download (openRead) ---
			{name: phPageFull, what: "download page blob", n: 1, op: func(_ int, o *cloud.Op) {
				blob(cloud.OpDownload, pageBlobName, o)
			}},
			// --- Entire block blob download (DownloadText) ---
			{name: phBlockFull, what: "download block blob", n: 1, op: func(_ int, o *cloud.Op) {
				blob(cloud.OpDownload, blockBlobName, o)
			}},
		}
		// Each phase is followed by the Algorithm 2 barrier, whose wait is
		// outside every timed window, as in the paper.
		r := &role{}
		for j, ph := range timed {
			r.phases = append(r.phases, ph)
			r.phases = append(r.phases, barrier(w, j+1)...)
		}
		// --- Delete (worker 0, untimed) ---
		if k == 0 {
			r.phases = append(r.phases,
				phase{what: "delete page blob", n: 1, op: func(_ int, o *cloud.Op) { blob(cloud.OpDeleteBlob, pageBlobName, o) }},
				phase{what: "delete block blob", n: 1, op: func(_ int, o *cloud.Op) { blob(cloud.OpDeleteBlob, blockBlobName, o) }})
		}
		return r
	})
	return pt.stats(phPageUpload, phBlockUp, phPageChunk, phBlockChunk, phPageFull, phBlockFull)
}

// barrier is the j-th crossing of the Algorithm 2 barrier among w workers
// (roles.Barrier.Wait) as a role's phases: put one message on the sync
// queue, then poll its count every poll interval until all w × j messages
// are in.
func barrier(w, j int) []phase {
	return []phase{
		{what: "barrier", n: 1, op: func(_ int, o *cloud.Op) {
			o.Kind, o.Name, o.Data = cloud.OpPutMessage, syncQueue, payload.String("barrier")
		}},
		{n: 1, gap: roles.DefaultPollInterval, op: func(_ int, o *cloud.Op) {
			o.Kind, o.Name = cloud.OpGetMessageCount, syncQueue
		}, then: func(_ int, o *cloud.Op) bool {
			must("barrier", o.Err)
			return o.Count < w*j
		}},
	}
}

// RunFig4 reproduces Figure 4: whole-blob upload/download time and
// aggregate throughput versus worker count, for block and page blobs.
func (s *Suite) RunFig4() *Report {
	wall := wallStopwatch()
	blobBytes := int64(s.cfg.BlobMB) << 20
	timeFig := metrics.Figure{
		Title:  "Figure 4(b): Blob storage time",
		XLabel: "workers",
		YLabel: "seconds (mean per worker)",
	}
	tputFig := metrics.Figure{
		Title:  "Figure 4(a): Blob storage throughput",
		XLabel: "workers",
		YLabel: "MB/s (aggregate)",
	}
	workers := sortedCopy(s.cfg.Workers)
	pts := sweep(s, len(workers), func(i int) *point { return s.runBlobPoint(workers[i]) })
	for i, w := range workers {
		st := pts[i].st
		x := float64(w)
		timeFig.AddPoint("BlockUpload", x, st[phBlockUp].mean.Seconds())
		timeFig.AddPoint("PageUpload", x, st[phPageUpload].mean.Seconds())
		timeFig.AddPoint("BlockDownload", x, st[phBlockFull].mean.Seconds())
		timeFig.AddPoint("PageDownload", x, st[phPageFull].mean.Seconds())
		tputFig.AddPoint("BlockUpload", x, metrics.MBps(blobBytes, st[phBlockUp].makespan))
		tputFig.AddPoint("PageUpload", x, metrics.MBps(blobBytes, st[phPageUpload].makespan))
		tputFig.AddPoint("BlockDownload", x, metrics.MBps(blobBytes*int64(w), st[phBlockFull].makespan))
		tputFig.AddPoint("PageDownload", x, metrics.MBps(blobBytes*int64(w), st[phPageFull].makespan))
	}
	return finish(s, &Report{
		ID:      "fig4",
		Title:   "Blob storage upload/download (Algorithm 1)",
		Figures: []metrics.Figure{tputFig, timeFig},
		Notes: []string{
			fmt.Sprintf("total uploaded: %d MB per blob type, shared; downloads: %d MB per worker per blob type", s.cfg.BlobMB, s.cfg.BlobMB),
			"synchronization (Algorithm 2 barrier) time is excluded from phase timings, as in the paper",
		},
		Wall: wall(),
	}, pts)
}

// RunFig5 reproduces Figure 5: chunked downloads — random page-wise and
// sequential block-wise — time and aggregate throughput versus workers.
func (s *Suite) RunFig5() *Report {
	wall := wallStopwatch()
	chunk := int64(s.cfg.ChunkMB) << 20
	timeFig := metrics.Figure{
		Title:  "Figure 5(b): Chunked blob download time",
		XLabel: "workers",
		YLabel: "seconds (mean per worker)",
	}
	tputFig := metrics.Figure{
		Title:  "Figure 5(a): Chunked blob download throughput",
		XLabel: "workers",
		YLabel: "MB/s (aggregate)",
	}
	workers := sortedCopy(s.cfg.Workers)
	pts := sweep(s, len(workers), func(i int) *point { return s.runBlobPoint(workers[i]) })
	for i, w := range workers {
		st := pts[i].st
		x := float64(w)
		bytes := chunk * int64(s.cfg.ChunkReads) * int64(w)
		timeFig.AddPoint("PageWise(random)", x, st[phPageChunk].mean.Seconds())
		timeFig.AddPoint("BlockWise(sequential)", x, st[phBlockChunk].mean.Seconds())
		tputFig.AddPoint("PageWise(random)", x, metrics.MBps(bytes, st[phPageChunk].makespan))
		tputFig.AddPoint("BlockWise(sequential)", x, metrics.MBps(bytes, st[phBlockChunk].makespan))
	}
	return finish(s, &Report{
		ID:      "fig5",
		Title:   "Blob download one page/block at a time (Algorithm 1, download loops)",
		Figures: []metrics.Figure{tputFig, timeFig},
		Notes: []string{
			fmt.Sprintf("each worker issues %d chunked reads of %d MB", s.cfg.ChunkReads, s.cfg.ChunkMB),
			"page reads hit random offsets (page-index lookup overhead); block reads are sequential",
		},
		Wall: wall(),
	}, pts)
}

// RunTableI renders the VM configuration catalogue (Table I).
func (s *Suite) RunTableI() *Report {
	wall := wallStopwatch()
	fig := metrics.Figure{
		Title:  "Table I: VM configurations for web/worker role instances",
		XLabel: "row",
		YLabel: "value",
	}
	notes := []string{"full catalogue:"}
	for i, v := range model.VMSizes {
		fig.AddPoint("cores", float64(i), v.CPUCores)
		fig.AddPoint("memoryMB", float64(i), float64(v.MemoryMB))
		fig.AddPoint("diskGB", float64(i), float64(v.DiskGB))
		fig.AddPoint("nicMbps", float64(i), float64(v.NICBps*8)/1e6)
		notes = append(notes, fmt.Sprintf("row %d: %s", i, v.String()))
	}
	return &Report{
		ID:      "table1",
		Title:   "VM configurations (Table I)",
		Figures: []metrics.Figure{fig},
		Notes:   notes,
		Wall:    wall(),
	}
}
