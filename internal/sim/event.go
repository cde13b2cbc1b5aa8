package sim

import (
	"math/bits"
	"time"
)

// event is a pending simulation event: at time at, wake, start or stop the
// process in slot who of Env.who, or, as who -1, run the OnTime hook filed
// under seq. It holds no pointer, so the queue's buckets are noscan: the GC
// never scans them, and moving an event pays no write barrier.
type event struct {
	at  time.Duration
	seq uint64 // schedule order; the queue keeps it without comparing, Save fingerprints it
	who int32
}

// eventQueue is a monotone radix queue of event values, popped in (at, seq)
// order. It relies on what the kernel guarantees: no event is pushed
// earlier than the latest pop (at ≥ now ≥ last), and every push carries a
// larger seq than any before it. The events due at last wait in due; an
// event due later sits in bucket later[k], k the highest bit in which its
// at differs from last. When due runs dry, pop takes the lowest non-empty
// bucket, makes its least at the new last and moves its events, in order,
// to due and the buckets below, which are all empty. So due and every
// bucket stay sorted by seq — pushes append the largest seq so far, moves
// append a seq-sorted run to an empty bucket — and same-instant events
// leave due in schedule order without a comparison of seq. A move takes
// an event to a lower bucket, so it moves at most 64 times.
// Values rather than pointers: a push writes into spare capacity, so
// steady-state scheduling allocates nothing (DESIGN.md §17).
type eventQueue struct {
	last  time.Duration // time of the latest pop; no pending event is earlier
	n     int           // pending events
	due   fifo[event]   // the events due at last
	mask  uint64        // bit k set when later[k] is non-empty
	later [64][]event
}

func (q *eventQueue) push(ev event) {
	q.n++
	q.file(ev)
}

// file puts ev in due or in its bucket, relative to last.
func (q *eventQueue) file(ev event) {
	if ev.at == q.last {
		q.due.push(ev)
		return
	}
	k := bits.Len64(uint64(ev.at^q.last)) - 1
	q.later[k] = append(q.later[k], ev)
	q.mask |= 1 << k
}

// pop removes and returns the next event; the queue must not be empty.
func (q *eventQueue) pop() event {
	q.n--
	if q.due.len() == 0 {
		k := bits.TrailingZeros64(q.mask)
		b := q.later[k]
		q.later[k] = b[:0]
		q.mask &^= 1 << k
		if len(b) == 1 { // the usual case with few events pending: no move
			q.last = b[0].at
			return b[0]
		}
		q.last = earliest(b)
		for _, ev := range b {
			q.file(ev)
		}
	}
	return q.due.pop()
}

// minAt returns when the next event is due without moving anything, so a
// push made afterwards at any time ≥ last still lands in its bucket; the
// queue must not be empty.
func (q *eventQueue) minAt() time.Duration {
	if q.due.len() > 0 {
		return q.last
	}
	return earliest(q.later[bits.TrailingZeros64(q.mask)])
}

func earliest(b []event) time.Duration {
	m := b[0].at
	for _, ev := range b[1:] {
		m = min(m, ev.at)
	}
	return m
}

// appendTo appends every pending event to dst in no particular order.
func (q *eventQueue) appendTo(dst []event) []event {
	dst = append(dst, q.due.items[q.due.head:]...)
	for _, b := range q.later {
		dst = append(dst, b...)
	}
	return dst
}
