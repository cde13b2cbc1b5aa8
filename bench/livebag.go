package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"time"
)

const (
	bagQueue   = "benchtasks"
	bagInputs  = "benchinputs"
	bagOutputs = "benchoutputs"
)

// liveBag is the paper's Figure 3 bag-of-tasks framework over HTTP
// (sdk.LiveTaskPool): each repetition the two workers submit the tasks to
// one queue and then drain it, and per task claim it, download its input
// blob, upload an output blob and complete it.
type liveBag struct {
	sz   sizes
	ls   *liveStack
	seed int64

	// Generated inputs.
	taskBody   [][]byte // task id and input index, padded to taskBytes
	taskInput  []int32
	inputName  []string
	inputData  [][]byte
	outputName []string // outputs rotate over a fixed set of names
	outputData [][]byte // what a task on input i uploads

	// Samples pooled over the timed repetitions, ns.
	taskNS, downloadNS, uploadNS []int64
	totals                       *layerTotals
	peakDepth                    int
	reps                         int
	bad                          []string
}

func (w *liveBag) setup(seed int64, sz sizes, tr *tracer) error {
	w.sz, w.seed = sz, seed
	w.generate()
	// Per worker and repetition, at most: four spans (loadgen, sdk,
	// transport, rest) for each of its half of the submits and, should it
	// claim every task itself, thirteen per task (loadgen and three per
	// request) plus the final empty poll.
	ls, err := startLive(tr, 15*sz.tasks+16)
	if err != nil {
		return err
	}
	w.ls = ls
	w.totals = newLayerTotals()
	c := ls.sdk[0]
	if err := c.Queue().Create(bagQueue); err != nil {
		return err
	}
	for _, name := range []string{bagInputs, bagOutputs} {
		if err := c.Blob().CreateContainer(name); err != nil {
			return err
		}
	}
	for i, name := range w.inputName {
		if err := c.Blob().Upload(bagInputs, name, w.inputData[i]); err != nil {
			return fmt.Errorf("preload input %d: %w", i, err)
		}
	}
	w.run(false, sz.tasksWarm)
	if len(w.bad) > 0 {
		return fmt.Errorf("warm-up: %s", w.bad[0])
	}
	w.taskNS, w.downloadNS, w.uploadNS = nil, nil, nil
	return nil
}

func (w *liveBag) generate() {
	sz := w.sz
	data := newRNG(w.seed, 1)
	blobs := newPool(data)
	for i := 0; i < sz.inputs; i++ {
		w.inputName = append(w.inputName, fmt.Sprintf("input-%04d", i))
		w.inputData = append(w.inputData, blobs.cut(uint64(2*i), sz.blobBytes))
		w.outputData = append(w.outputData, blobs.cut(uint64(2*i+1), sz.blobBytes))
	}
	for i := 0; i < sz.outputs; i++ {
		w.outputName = append(w.outputName, fmt.Sprintf("output-%04d", i))
	}
	pick := newRNG(w.seed, 2)
	for t := 0; t < sz.tasks; t++ {
		in := pick.intn(sz.inputs)
		body := data.bytes(sz.taskBytes)
		binary.LittleEndian.PutUint32(body[0:], uint32(t))
		binary.LittleEndian.PutUint32(body[4:], uint32(in))
		w.taskBody = append(w.taskBody, body)
		w.taskInput = append(w.taskInput, int32(in))
	}
}

func (w *liveBag) rep(traced bool, _ func()) (repResult, error) {
	w.reps++
	return w.run(traced, w.sz.tasks), nil
}

// claimVisibility is far longer than a repetition, so a claimed task is
// never handed out twice.
const claimVisibility = 10 * time.Minute

// Step names of one task, in order.
var taskSteps = [...]string{"claim", "download", "upload", "complete"}

// run is one repetition over the first tasks generated tasks: submit
// them all, then drain the queue.
func (w *liveBag) run(traced bool, tasks int) repResult {
	sz, ls := w.sz, w.ls
	type perWorker struct {
		task, download, upload []int64
		done                   []uint8 // completions per task id
		failed                 int
		bad                    string
	}
	pw := make([]perWorker, clients)
	for i := range pw {
		pw[i].task = make([]int64, 0, tasks)
		pw[i].download = make([]int64, 0, tasks)
		pw[i].upload = make([]int64, 0, tasks)
		pw[i].done = make([]uint8, tasks)
		if ls.bufs != nil {
			ls.bufs[i].reset(traced)
		}
	}
	opBase := int64(w.reps) << 32
	var submitSpans [clients]int // spans each worker recorded while submitting

	submitWall := ls.phase(func(worker int) {
		pool := ls.sdk[worker].Queue().NewLiveTaskPool(bagQueue, claimVisibility)
		st := &pw[worker]
		b := ls.buf(worker, traced)
		lo, hi := split(tasks, worker)
		for t := lo; t < hi; t++ {
			t0 := ls.clk.now()
			root := b.beginOp(opBase|int64(sz.tasks+t), "submit", t0)
			b.beginCall(root, "submit", t0)
			err := pool.Submit(w.taskBody[t])
			t1 := ls.clk.now()
			b.endCall(t1)
			b.endOp(root, t1)
			if err != nil {
				st.failed++
				st.bad = fmt.Sprintf("submit task %d: %v", t, err)
			}
		}
		if b != nil {
			submitSpans[worker] = len(b.spans)
		}
	})

	depth := 0
	if traced {
		depth, _ = ls.srv.Queue.ApproximateCount(bagQueue)
	}

	drainWall := ls.phase(func(worker int) {
		c := ls.sdk[worker]
		pool := c.Queue().NewLiveTaskPool(bagQueue, claimVisibility)
		blobs := c.Blob()
		st := &pw[worker]
		b := ls.buf(worker, traced)
		// begin and end bracket one SDK request of the task in flight;
		// what the worker does between two requests (parsing, comparing
		// bytes) is the load generator's own time.
		var root int32
		begin := func(step int) int64 {
			t := ls.clk.now()
			b.beginCall(root, taskSteps[step], t)
			return t
		}
		end := func() int64 {
			t := ls.clk.now()
			b.endCall(t)
			return t
		}
		for n := int64(0); ; n++ {
			t0 := ls.clk.now()
			root = b.beginOp(opBase|int64(worker)<<24|n, "task", t0)
			begin(0)
			task, ok, err := pool.TryNext()
			end()
			if err != nil {
				st.failed++
				st.bad = fmt.Sprintf("claim: %v", err)
				return
			}
			if !ok {
				// Queue drained. The empty poll is not a task: drop
				// its spans.
				if b != nil {
					b.spans = b.spans[:root]
				}
				return
			}
			id, in := -1, -1
			if len(task.Body) >= 8 {
				id = int(binary.LittleEndian.Uint32(task.Body[0:]))
				in = int(binary.LittleEndian.Uint32(task.Body[4:]))
			}
			if id < 0 || id >= tasks || !bytes.Equal(task.Body, w.taskBody[id]) {
				st.failed++
				st.bad = fmt.Sprintf("claimed a task body that was never submitted (id %d)", id)
				continue
			}

			t1 := begin(1)
			got, err := blobs.Download(bagInputs, w.inputName[in])
			t2 := end()
			if err != nil || !bytes.Equal(got, w.inputData[in]) {
				st.failed++
				st.bad = fmt.Sprintf("task %d: download of input %d wrong or failed: %v", id, in, err)
				continue
			}

			t3 := begin(2)
			err = blobs.Upload(bagOutputs, w.outputName[id%sz.outputs], w.outputData[in])
			t4 := end()
			if err != nil {
				st.failed++
				st.bad = fmt.Sprintf("task %d: upload: %v", id, err)
				continue
			}

			begin(3)
			err = pool.Complete(task)
			t5 := end()
			b.endOp(root, t5)
			if err != nil {
				st.failed++
				st.bad = fmt.Sprintf("task %d: complete: %v", id, err)
				continue
			}
			st.done[id]++
			st.task = append(st.task, t5-t0)
			st.download = append(st.download, t2-t1)
			st.upload = append(st.upload, t4-t3)
		}
	})

	rr := repResult{
		wall: submitWall + drainWall, ops: tasks, opsWall: drainWall,
		attempted: 2 * tasks, // one submit and one task each
	}
	done := make([][]uint8, clients)
	for i := range pw {
		done[i] = pw[i].done
	}
	completed, lost := checkCompletions(done, tasks)
	w.bad = append(w.bad, lost...)
	rr.failed = tasks - completed
	for i := range pw {
		w.taskNS = append(w.taskNS, pw[i].task...)
		w.downloadNS = append(w.downloadNS, pw[i].download...)
		w.uploadNS = append(w.uploadNS, pw[i].upload...)
		rr.failed += pw[i].failed
		if pw[i].bad != "" {
			w.bad = append(w.bad, pw[i].bad)
		}
		if traced {
			if err := ls.bufs[i].settle(); err != nil {
				w.bad = append(w.bad, err.Error())
			}
			w.totals.add(ls.bufs[i].spans, submitSpans[i], len(ls.bufs[i].spans))
		}
	}
	if n, err := ls.sdk[0].Queue().ApproximateCount(bagQueue); err != nil || n != 0 {
		w.bad = append(w.bad, fmt.Sprintf("queue holds %d messages after the drain (%v)", n, err))
	}
	if depth > w.peakDepth {
		w.peakDepth = depth
	}
	return rr
}

// checkCompletions takes each worker's completions per task id and returns
// how many tasks were completed exactly once, with a complaint for every
// task that was lost or completed more than once.
func checkCompletions(done [][]uint8, tasks int) (completed int, bad []string) {
	for t := 0; t < tasks; t++ {
		n := 0
		for _, d := range done {
			n += int(d[t])
		}
		if n == 1 {
			completed++
		} else {
			bad = append(bad, fmt.Sprintf("task %d completed %d times", t, n))
		}
	}
	return completed, bad
}

func (w *liveBag) finish(m metrics) (string, error) {
	addLatencies(m, w.taskNS, w.downloadNS, w.uploadNS, nil)
	w.ls.inSitu(m, w.totals)
	m.set("queuestore.peak_depth", float64(w.peakDepth), "count")
	if len(w.bad) > 0 {
		return "", fmt.Errorf("%d failures, first: %s", len(w.bad), w.bad[0])
	}
	return fmt.Sprintf("%d tasks each claimed once with the submitted body, input downloaded intact, output uploaded, completed once; queue empty after every drain",
		len(w.taskNS)), nil
}

func (w *liveBag) describe() string {
	return fmt.Sprintf("%d tasks x %d B per repetition (stream %s), %d input blobs x %d B, outputs rotate over %d names; %d closed-loop workers",
		w.sz.tasks, w.sz.taskBytes, hashInts(w.taskInput), w.sz.inputs, w.sz.blobBytes, w.sz.outputs, clients)
}

func (w *liveBag) close() {
	if w.ls != nil {
		w.ls.stop()
	}
}
