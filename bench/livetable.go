package main

import (
	"fmt"
	"strconv"

	"azurebench/internal/payload"
	"azurebench/internal/sdk"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
)

const benchTable = "benchtable"

// Operation kinds of the point phase.
const (
	opGet     = 0
	opReplace = 1
)

// liveTable is YCSB-A on the table service through the SDK and a socket: a
// point phase (50/50 Get/Replace, zipfian keys) and a scan phase (short
// range queries inside one partition).
type liveTable struct {
	sz   sizes
	ls   *liveStack
	seed int64

	// Generated inputs. Key i lives in partition i mod partitions. Every
	// value has two versions, the preloaded one and the replacing one,
	// both cut from the pool; the replacing entities exist before the
	// clock starts.
	pk, rk     []string
	values     pool
	entB       []*tablestore.Entity
	pointKind  []int32
	pointKey   []int32
	scanStart  []int32
	scanFilter []string

	// Samples pooled over the timed repetitions, ns.
	getNS, replaceNS, scanNS []int64
	totals                   *layerTotals
	reps                     int
	bad                      []string
}

func (w *liveTable) setup(seed int64, sz sizes, tr *tracer) error {
	w.sz, w.seed = sz, seed
	w.generate()
	// Per worker and repetition: one loadgen, sdk, transport and rest
	// span per operation.
	ls, err := startLive(tr, 4*(sz.pointOps+sz.scanOps)/clients+8)
	if err != nil {
		return err
	}
	w.ls = ls
	w.totals = newLayerTotals()
	if err := ls.sdk[0].Table().Create(benchTable); err != nil {
		return err
	}
	errs := make([]error, clients)
	ls.phase(func(worker int) {
		tc := ls.sdk[worker].Table()
		lo, hi := split(sz.records, worker)
		for i := lo; i < hi; i++ {
			if _, err := tc.Insert(benchTable, w.entity(i, versionA)); err != nil {
				errs[worker] = fmt.Errorf("preload entity %d: %w", i, err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	w.run(false, sz.pointWarm, sz.scanWarm)
	if len(w.bad) > 0 {
		return fmt.Errorf("warm-up: %s", w.bad[0])
	}
	w.getNS, w.replaceNS, w.scanNS = nil, nil, nil
	return nil
}

// generate derives every input from the seed: keys, both value versions,
// the point-phase stream and the scan-phase stream with its filters.
func (w *liveTable) generate() {
	sz := w.sz
	w.values = newPool(newRNG(w.seed, 1))
	for i := 0; i < sz.records; i++ {
		w.pk = append(w.pk, fmt.Sprintf("p%02d", i%sz.partitions))
		w.rk = append(w.rk, fmt.Sprintf("user%010d", i))
		w.entB = append(w.entB, w.entity(i, versionB))
	}
	mix := newRNG(w.seed, 2)
	keys := newZipf(newRNG(w.seed, 3), sz.records, 0.99)
	for i := 0; i < sz.pointOps; i++ {
		w.pointKind = append(w.pointKind, int32(mix.intn(2)))
		w.pointKey = append(w.pointKey, int32(keys.next()))
	}
	starts := newRNG(w.seed, 4)
	for i := 0; i < sz.scanOps; i++ {
		s := starts.intn(sz.records)
		w.scanStart = append(w.scanStart, int32(s))
		w.scanFilter = append(w.scanFilter, "PartitionKey eq '"+w.pk[s]+"' and RowKey ge '"+w.rk[s]+"'")
	}
}

// The two versions of a key's value.
const (
	versionA = 0 // preloaded
	versionB = 1 // written by every replace
)

func (w *liveTable) value(i, version int) payload.Payload {
	return payload.Bytes(w.values.cut(uint64(2*i+version), w.sz.valueBytes))
}

func (w *liveTable) entity(i, version int) *tablestore.Entity {
	return &tablestore.Entity{
		PartitionKey: w.pk[i],
		RowKey:       w.rk[i],
		Props:        map[string]tablestore.Value{"Field0": tablestore.Binary(w.value(i, version))},
	}
}

const scanTop = 10

func (w *liveTable) rep(traced bool, _ func()) (repResult, error) {
	w.reps++
	return w.run(traced, w.sz.pointOps, w.sz.scanOps), nil
}

// run is one repetition over the first pointOps and scanOps entries of
// the generated streams: the point phase, then the scan phase. Sample
// buffers are allocated here, before either clock starts; nothing is
// formatted, printed or allocated by the harness inside a phase.
func (w *liveTable) run(traced bool, pointOps, scanOps int) repResult {
	sz, ls := w.sz, w.ls
	type perWorker struct {
		get, replace, scan []int64
		failed             int
		bad                string
	}
	pw := make([]perWorker, clients)
	for i := range pw {
		lo, hi := split(pointOps, i)
		pw[i].get = make([]int64, 0, hi-lo)
		pw[i].replace = make([]int64, 0, hi-lo)
		lo, hi = split(scanOps, i)
		pw[i].scan = make([]int64, 0, hi-lo)
		if ls.bufs != nil {
			ls.bufs[i].reset(traced)
		}
	}
	opBase := int64(w.reps) << 32
	var pointSpans [clients]int // spans each worker recorded in the point phase

	pointWall := ls.phase(func(worker int) {
		tc := ls.sdk[worker].Table()
		st := &pw[worker]
		b := ls.buf(worker, traced)
		lo, hi := split(pointOps, worker)
		for i := lo; i < hi; i++ {
			k := int(w.pointKey[i])
			kind := w.pointKind[i]
			t0 := ls.clk.now()
			root := b.beginOp(opBase|int64(i), pointNames[kind], t0)
			b.beginCall(root, pointNames[kind], t0)
			var err error
			var got *tablestore.Entity
			if kind == opGet {
				got, err = tc.Get(benchTable, w.pk[k], w.rk[k])
			} else {
				_, err = tc.Replace(benchTable, w.entB[k], storecommon.ETagAny)
			}
			b.endCall(ls.clk.now())
			if err != nil {
				st.failed++
				st.bad = fmt.Sprintf("point op %d (%s key %d): %v", i, pointNames[kind], k, err)
			} else if kind == opGet && !w.validRead(got, k) {
				st.failed++
				st.bad = fmt.Sprintf("point op %d: read of key %d returned neither written version", i, k)
			}
			t1 := ls.clk.now()
			b.endOp(root, t1)
			if kind == opGet {
				st.get = append(st.get, t1-t0)
			} else {
				st.replace = append(st.replace, t1-t0)
			}
		}
		if b != nil {
			pointSpans[worker] = len(b.spans)
		}
	})

	scanWall := ls.phase(func(worker int) {
		tc := ls.sdk[worker].Table()
		st := &pw[worker]
		b := ls.buf(worker, traced)
		lo, hi := split(scanOps, worker)
		for i := lo; i < hi; i++ {
			t0 := ls.clk.now()
			root := b.beginOp(opBase|int64(sz.pointOps+i), "scan", t0)
			b.beginCall(root, "scan", t0)
			page, err := tc.Query(benchTable, w.scanFilter[i], scanTop, tablestore.Continuation{})
			b.endCall(ls.clk.now())
			if err != nil {
				st.failed++
				st.bad = fmt.Sprintf("scan %d: %v", i, err)
			} else if msg := w.checkScan(page, int(w.scanStart[i])); msg != "" {
				st.failed++
				st.bad = fmt.Sprintf("scan %d: %s", i, msg)
			}
			t1 := ls.clk.now()
			b.endOp(root, t1)
			st.scan = append(st.scan, t1-t0)
		}
	})

	rr := repResult{
		wall: pointWall + scanWall, ops: pointOps, opsWall: pointWall,
		attempted: pointOps + scanOps,
	}
	for i := range pw {
		w.getNS = append(w.getNS, pw[i].get...)
		w.replaceNS = append(w.replaceNS, pw[i].replace...)
		w.scanNS = append(w.scanNS, pw[i].scan...)
		rr.failed += pw[i].failed
		if pw[i].bad != "" {
			w.bad = append(w.bad, pw[i].bad)
		}
		if traced {
			if err := ls.bufs[i].settle(); err != nil {
				w.bad = append(w.bad, err.Error())
			}
			w.totals.add(ls.bufs[i].spans, 0, pointSpans[i])
		}
	}
	return rr
}

var pointNames = [...]string{opGet: "get", opReplace: "replace"}

// validRead accepts a body equal to either version ever written to key k.
func (w *liveTable) validRead(e *tablestore.Entity, k int) bool {
	if e == nil || e.PartitionKey != w.pk[k] || e.RowKey != w.rk[k] {
		return false
	}
	v, ok := e.Props["Field0"]
	if !ok || v.Type != tablestore.TypeBinary {
		return false
	}
	return payload.Equal(v.Bin, w.value(k, versionA)) || payload.Equal(v.Bin, w.value(k, versionB))
}

// checkScan verifies one range query that started at key index start: at
// most scanTop rows, all in the start key's partition, ascending, none
// below the start key — and, since keys are never added or removed,
// exactly the next keys of that partition.
func (w *liveTable) checkScan(page sdk.QueryPage, start int) string {
	rows := page.Entities
	if len(rows) > scanTop {
		return strconv.Itoa(len(rows)) + " rows, more than $top"
	}
	want := start
	for j, e := range rows {
		if e.PartitionKey != w.pk[start] {
			return "row " + strconv.Itoa(j) + " is from partition " + e.PartitionKey
		}
		if e.RowKey < w.rk[start] {
			return "row " + strconv.Itoa(j) + " is below the start key"
		}
		if j > 0 && e.RowKey <= rows[j-1].RowKey {
			return "rows are not ascending at " + strconv.Itoa(j)
		}
		if want >= w.sz.records || e.RowKey != w.rk[want] {
			return "row " + strconv.Itoa(j) + " is " + e.RowKey + ", not the next key of the partition"
		}
		want += w.sz.partitions
	}
	if len(rows) < scanTop && want < w.sz.records {
		return "scan stopped after " + strconv.Itoa(len(rows)) + " rows with keys left in the partition"
	}
	return ""
}

func (w *liveTable) finish(m metrics) (string, error) {
	point := append(append([]int64(nil), w.getNS...), w.replaceNS...)
	addLatencies(m, point, w.getNS, w.replaceNS, w.scanNS)
	w.ls.inSitu(m, w.totals)
	if n, err := w.ls.srv.Table.EntityCount(benchTable); err != nil || n != w.sz.records {
		return "", fmt.Errorf("table holds %d entities (%v), preloaded %d", n, err, w.sz.records)
	}
	if len(w.bad) > 0 {
		return "", fmt.Errorf("%d failures, first: %s", len(w.bad), w.bad[0])
	}
	return fmt.Sprintf("%d reads returned a version written to their key, %d replaces succeeded, %d scans returned exactly the next keys of their partition in order",
		len(w.getNS), len(w.replaceNS), len(w.scanNS)), nil
}

func (w *liveTable) describe() string {
	return fmt.Sprintf("%d entities x %d B in %d partitions; point phase %d ops (stream %s), scan phase %d queries top %d (stream %s); %d closed-loop clients",
		w.sz.records, w.sz.valueBytes, w.sz.partitions, w.sz.pointOps, hashInts(w.pointKind, w.pointKey),
		w.sz.scanOps, scanTop, hashInts(w.scanStart), clients)
}

func (w *liveTable) close() {
	if w.ls != nil {
		w.ls.stop()
	}
}
