package sim

// fifo is a queue of parked waiters, and of the events due at the
// current instant (eventQueue.due). pop advances a head index instead of
// shifting the slice, so a grant costs O(1) however many processes are
// queued behind it (the shared-queue experiments park every worker but
// one on one station). The dead prefix is dropped when the queue empties,
// or once it outgrows the live part — a copy of fewer elements than the
// pops that preceded it, so amortised O(1) — which bounds the backing
// array on a station that never drains, and the due events of processes
// that keep scheduling more work at one instant.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int { return len(q.items) - q.head }

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

// pop removes and returns the oldest element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	var zero T
	v := q.items[q.head]
	q.items[q.head] = zero
	q.head++
	if live := len(q.items) - q.head; live == 0 {
		q.items, q.head = q.items[:0], 0
	} else if live < q.head {
		copy(q.items, q.items[q.head:])
		clear(q.items[q.head:]) // the popped prefix is zero already
		q.items = q.items[:live]
		q.head = 0
	}
	return v
}
