package core

import (
	"fmt"
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/metrics"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
)

// Table benchmark phases (Algorithm 5).
const (
	phTabInsert = "table-insert"
	phTabQuery  = "table-query"
	phTabUpdate = "table-update"
	phTabDelete = "table-delete"
)

const benchTable = "AzureBenchTable"

// runTablePoint returns the Algorithm 5 point at (w, sizeKB), simulated
// once per run (fig8, fig9 and ablation read it).
func (s *Suite) runTablePoint(w int, sizeKB int) *point {
	return s.shared("table", w, sizeKB, func() *point { return s.tablePoint(w, sizeKB) })
}

// tablePoint executes Algorithm 5 at one (workers, entitySize) point:
// each worker inserts its entities into its own partition (partition key =
// role id), queries them back, updates them with the ETag wildcard, and
// deletes them.
func (s *Suite) tablePoint(w int, sizeKB int) *point {
	pt := s.newPoint()
	cfg := s.cfg
	entSize := int64(sizeKB) * storecommon.KB

	pt.setup(func(p *sim.Proc, setup *cloud.Client) {
		_, err := setup.CreateTableIfNotExists(p, benchTable)
		must("create table", err)
	})
	// Attach the sampler after setup so its process spans exactly the
	// benchmark phases (it exits once nothing else is scheduled).
	pt.sample(pt.c.Stations, fmt.Sprintf("table/w=%d/%dKB", w, sizeKB))

	// The row keys of every worker's partition, formatted once for all phases.
	count := cfg.TableEntities
	rowKeys := make([]string, count)
	for i := range rowKeys {
		rowKeys[i] = fmt.Sprintf("row-%05d", i)
	}
	pt.run(w, func(k int, _ *cloud.Client) *role {
		pk := fmt.Sprintf("worker-%03d", k)
		// One entity per worker, rewritten for each write: the worker has
		// one request in flight, and the store files a copy of it.
		e := &tablestore.Entity{PartitionKey: pk, Props: map[string]tablestore.Value{}}
		// Updates and deletes are unconditional, via the "*" wildcard ETag
		// (inserts and queries read no ETag).
		write := func(kind cloud.OpKind, seed uint64) func(int, *cloud.Op) {
			return func(i int, o *cloud.Op) {
				e.RowKey = rowKeys[i]
				e.Props["Data"] = tablestore.Binary(payload.Synthetic(seed+uint64(i), entSize))
				o.Kind, o.Name, o.Key, o.Ent, o.IfMatch = kind, benchTable, pk, e, storecommon.ETagAny
			}
		}
		byKey := func(kind cloud.OpKind) func(int, *cloud.Op) {
			return func(i int, o *cloud.Op) {
				o.Kind, o.Name, o.Key, o.ID, o.IfMatch = kind, benchTable, pk, rowKeys[i], storecommon.ETagAny
			}
		}
		return &role{phases: []phase{
			// Insert (AddRow).
			{name: phTabInsert, what: "insert", n: count, op: write(cloud.OpInsertEntity, uint64(cfg.Seed))},
			// Point query by partition+row key.
			{name: phTabQuery, what: "query", n: count, op: byKey(cloud.OpGetEntity)},
			{name: phTabUpdate, what: "update", n: count, op: write(cloud.OpUpdateEntity, uint64(cfg.Seed)+1_000_000)},
			{name: phTabDelete, what: "delete", n: count, op: byKey(cloud.OpDeleteEntity)},
		}}
	})
	return pt.stats(phTabInsert, phTabQuery, phTabUpdate, phTabDelete)
}

// RunFig8 reproduces Figure 8: per-phase time versus workers for Insert,
// Query, Update and Delete, one series per entity size.
func (s *Suite) RunFig8() *Report {
	wall := wallStopwatch()
	figs := map[string]*metrics.Figure{
		phTabInsert: {Title: "Figure 8(a): Table Insert", XLabel: "workers", YLabel: "seconds (mean per worker, whole phase)"},
		phTabQuery:  {Title: "Figure 8(b): Table Query", XLabel: "workers", YLabel: "seconds (mean per worker, whole phase)"},
		phTabUpdate: {Title: "Figure 8(c): Table Update", XLabel: "workers", YLabel: "seconds (mean per worker, whole phase)"},
		phTabDelete: {Title: "Figure 8(d): Table Delete", XLabel: "workers", YLabel: "seconds (mean per worker, whole phase)"},
	}
	workers, sizes := sortedCopy(s.cfg.Workers), s.cfg.TableSizesKB
	// One point per (size, workers), a size's worker sweep at a time.
	pts := sweep(s, len(sizes)*len(workers), func(i int) *point {
		return s.runTablePoint(workers[i%len(workers)], sizes[i/len(workers)])
	})
	for i, pt := range pts {
		series := fmt.Sprintf("%dKB", sizes[i/len(workers)])
		for ph, fig := range figs {
			fig.AddPoint(series, float64(workers[i%len(workers)]), pt.st[ph].mean.Seconds())
		}
	}
	return finish(s, &Report{
		ID:    "fig8",
		Title: "Table storage benchmarks (Algorithm 5)",
		Figures: []metrics.Figure{
			*figs[phTabInsert], *figs[phTabQuery], *figs[phTabUpdate], *figs[phTabDelete],
		},
		Notes: []string{
			fmt.Sprintf("%d entities per worker, one binary property, partition key = role id", s.cfg.TableEntities),
			"updates are unconditional (ETag \"*\"), as in the paper",
		},
		Wall: wall(),
	}, pts)
}

// RunFig9 reproduces Figure 9: mean per-operation time versus workers for
// the four table operations and the three queue operations, at 4 KB
// payloads (queue ops from the per-worker-queue benchmark of Algorithm 3).
func (s *Suite) RunFig9() *Report {
	wall := wallStopwatch()
	fig := metrics.Figure{
		Title:  "Figure 9: Per-operation time, Table (insert/query/update/delete) vs Queue (put/peek/get)",
		XLabel: "workers",
		YLabel: "ms (mean per operation)",
	}
	const sizeKB = 4
	workers := sortedCopy(s.cfg.Workers)
	// Two points per worker count: the table one, then the queue one.
	pts := sweep(s, 2*len(workers), func(i int) *point {
		w := workers[i/2]
		if i%2 == 0 {
			return s.runTablePoint(w, sizeKB)
		}
		return s.runQueuePerWorkerPoint(w, sizeKB, fmt.Sprintf("fig9/w=%d/%dKB", w, sizeKB))
	})
	for i, w := range workers {
		tab, q := pts[2*i].st, pts[2*i+1].st
		add := func(name string, st phaseStats) {
			fig.AddPoint(name, float64(w), float64(st.opMean())/float64(time.Millisecond))
		}
		add("TableInsert", tab[phTabInsert])
		add("TableQuery", tab[phTabQuery])
		add("TableUpdate", tab[phTabUpdate])
		add("TableDelete", tab[phTabDelete])
		add("QueuePut", q[phQueuePut])
		add("QueuePeek", q[phQueuePeek])
		add("QueueGet", q[phQueueGet])
	}
	return finish(s, &Report{
		ID:      "fig9",
		Title:   "Per-operation time for Table and Queue services",
		Figures: []metrics.Figure{fig},
		Notes: []string{
			"4 KB payloads; queue ops use a dedicated queue per worker (Algorithm 3), table ops a dedicated partition per worker (Algorithm 5)",
			"the paper's conclusion — Queue storage scales better than Table storage as workers increase — shows as flat queue curves vs rising table curves past 4 workers",
		},
		Wall: wall(),
	}, pts)
}
