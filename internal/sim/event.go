package sim

import "time"

// event is a pending simulation event: at time at, either wake proc (the
// common case — a sleep ending, a grant, a broadcast — which needs no
// closure) or run fire in kernel context.
type event struct {
	at   time.Duration
	seq  uint64 // tie-breaker: events at the same instant fire in schedule order
	proc *Proc
	fire func()
}

func (ev *event) before(o *event) bool {
	if ev.at != o.at {
		return ev.at < o.at
	}
	return ev.seq < o.seq
}

// eventHeap is a 4-ary min-heap of event values ordered by (at, seq).
// Values rather than pointers: a push writes into the slice's spare
// capacity, so steady-state scheduling allocates nothing. Four children
// per node halve the depth of the binary heap; pop's extra comparisons
// per level stay inside one or two cache lines of adjacent 32-byte
// records (measured no slower than arity 2 from 16 to 4 096 pending
// events; DESIGN.md §17).
type eventHeap []event

const heapArity = 4

func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / heapArity
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{} // drop the proc/closure references
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		first := i*heapArity + 1
		if first >= n {
			break
		}
		best := first
		end := first + heapArity
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if s[c].before(&s[best]) {
				best = c
			}
		}
		if !s[best].before(&last) {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = last
	return top
}
