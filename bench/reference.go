package main

import (
	"container/heap"
	"strconv"
	"time"
)

// The reference kernel is how the harness tells a slower program from a
// slower machine. The boxes this benchmark runs on are small shared VMs
// whose speed drifts by tens of percent from one quarter of an hour to the
// next and by a tenth within seconds, so a wall time alone says as much
// about the neighbours as about the code. The kernel is a fixed piece of
// the harness's own work of the two kinds every program of this repository
// spends its time on: small allocations with map traffic, and goroutines
// handing control to each other through channels under an event heap. It
// is timed before, between and after the set-ups and before, between and
// after the timed repetitions, and the end-to-end metrics are reported as
// on a machine where the kernel takes referenceNominal:
//
//	reported time = measured median x referenceNominal / median kernel time of that phase
//
// The kernel touches none of the repository's code, so a change to the
// repository moves a reported number by the factor it moves the measured
// one. Which parts make a good kernel was measured, not guessed: of six
// candidates (dependent cache-missing loads, scans over pointer slices,
// 64 KiB copies and loopback TCP round trips were the others) these two
// tracked all four workloads best and most evenly; see README.md.

// referenceNominal is the kernel's time on the 2-core box of the first
// ledger entry in its quiet state. It only fixes the scale.
const referenceNominal = 280 * time.Millisecond

// Kernel sizes; each part takes about half of referenceNominal.
const (
	refChurnOps = 1_600_000
	refProcs    = 32
	refEvents   = 6_500 // per simulated process
)

type reference struct {
	divide int      // every count is divided by this; 1 except in tests of the harness
	keys   []string // map keys of the churn part
	sink   uint64
}

func newReference(divide int) *reference {
	r := &reference{divide: divide}
	for i := 0; i < 4096; i++ {
		r.keys = append(r.keys, "key-"+strconv.Itoa(i*7919))
	}
	return r
}

type refNode struct {
	next *refNode
	pay  [6]uint64
}

type refEvent struct {
	at   int64
	fire func()
}

type refHeap []*refEvent

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// run executes the kernel once and returns how long it took.
func (r *reference) run() time.Duration {
	t0 := time.Now()

	// Small allocations, some kept alive for a while, with map writes
	// and reads on string keys.
	index := map[string]*refNode{}
	var kept *refNode
	for i := 0; i < refChurnOps/r.divide; i++ {
		n := &refNode{next: kept}
		n.pay[0] = uint64(i)
		if i%16 == 0 {
			kept = n
		}
		if i%100_000 == 0 {
			kept = nil
		}
		index[r.keys[i&4095]] = n
		if v := index[r.keys[(i*31)&4095]]; v != nil {
			r.sink += v.pay[0]
		}
	}

	// A small discrete-event loop: processes are goroutines that park on
	// a channel and are resumed by events popped off a heap.
	var events refHeap
	now := int64(0)
	yield := make(chan struct{})
	for p := 0; p < refProcs; p++ {
		resume := make(chan struct{})
		step := int64(p + 3)
		go func() {
			<-resume
			for k := int64(1); k <= int64(refEvents/r.divide); k++ {
				heap.Push(&events, &refEvent{at: now + step*k%97 + 1, fire: func() { resume <- struct{}{}; <-yield }})
				yield <- struct{}{}
				<-resume
			}
			yield <- struct{}{}
		}()
		heap.Push(&events, &refEvent{at: 0, fire: func() { resume <- struct{}{}; <-yield }})
	}
	for events.Len() > 0 {
		e := heap.Pop(&events).(*refEvent)
		now = e.at
		e.fire()
	}
	return time.Since(t0)
}
