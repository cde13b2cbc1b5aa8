package queuestore

import (
	"container/heap"
	"sort"
	"time"

	"azurebench/internal/payload"
)

// queue indexes its messages so that every operation costs what it
// touches, not the queue's depth. Queue order is insertion order (seq): a
// message whose visibility timeout lapses regains its original position.
//
// Every message is in byID and expiry, and in exactly one of visible and
// hidden. Messages in visible have nextVisible <= asOf; surface moves
// messages across as the clock passes their nextVisible.
type queue struct {
	name     string
	created  time.Time
	metadata map[string]string
	nextID   uint64

	seq     uint64 // insertion counter, not persisted: Load renumbers
	byID    map[string]*message
	expiry  msgHeap   // by expires: reap pops what has expired, nothing else
	visible msgHeap   // by seq: its smallest are the head of the queue
	hidden  msgHeap   // by nextVisible: surface pops what has lapsed
	asOf    time.Time // the latest instant surface has run for
}

func newQueue(name string, created time.Time) *queue {
	q := &queue{name: name, created: created}
	q.clear()
	return q
}

// clear drops every message and index entry.
func (q *queue) clear() {
	q.byID = map[string]*message{}
	q.expiry = msgHeap{slot: 0, less: func(a, b *message) bool { return a.expires.Before(b.expires) }}
	q.visible = msgHeap{slot: 1, less: func(a, b *message) bool { return a.seq < b.seq }}
	q.hidden = msgHeap{slot: 1, less: func(a, b *message) bool { return a.nextVisible.Before(b.nextVisible) }}
}

type message struct {
	id           string
	body         payload.Payload
	inserted     time.Time
	expires      time.Time
	nextVisible  time.Time
	dequeueCount int
	popReceipt   string // valid while the message is invisible from a Get

	seq  uint64   // position in queue order
	pos  [2]int   // index in q.expiry, index in *side
	side *msgHeap // q.visible or q.hidden, whichever holds the message
}

// msgHeap is a container/heap of messages that records each message's
// index in m.pos[slot], so a message reached through byID can be removed
// or re-keyed in O(log n).
type msgHeap struct {
	msgs []*message
	slot int
	less func(a, b *message) bool
}

func (h *msgHeap) Len() int           { return len(h.msgs) }
func (h *msgHeap) Less(i, j int) bool { return h.less(h.msgs[i], h.msgs[j]) }

func (h *msgHeap) Swap(i, j int) {
	h.msgs[i], h.msgs[j] = h.msgs[j], h.msgs[i]
	h.msgs[i].pos[h.slot] = i
	h.msgs[j].pos[h.slot] = j
}

func (h *msgHeap) Push(x any) {
	m := x.(*message)
	m.pos[h.slot] = len(h.msgs)
	h.msgs = append(h.msgs, m)
}

func (h *msgHeap) Pop() any {
	last := len(h.msgs) - 1
	m := h.msgs[last]
	h.msgs[last] = nil
	h.msgs = h.msgs[:last]
	return m
}

// smallest appends the k smallest messages to out in ascending order
// without disturbing the heap. A heap node is never smaller than its
// parent, so the next smallest is always a child of one already taken:
// the search keeps that frontier (at most k+1 indices) and never looks
// deeper, whatever the heap's size.
func (h *msgHeap) smallest(k int, out []*message, frontier []int) ([]*message, []int) {
	out, frontier = out[:0], frontier[:0]
	if len(h.msgs) > 0 {
		frontier = append(frontier, 0)
	}
	for len(out) < k && len(frontier) > 0 {
		best := 0
		for i := 1; i < len(frontier); i++ {
			if h.Less(frontier[i], frontier[best]) {
				best = i
			}
		}
		at := frontier[best]
		out = append(out, h.msgs[at])
		frontier[best] = frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		for child := 2*at + 1; child <= 2*at+2 && child < len(h.msgs); child++ {
			frontier = append(frontier, child)
		}
	}
	return out, frontier
}

// add indexes a message that is not in the queue yet, at the tail of
// queue order.
func (q *queue) add(m *message) {
	q.seq++
	m.seq = q.seq
	q.byID[m.id] = m
	heap.Push(&q.expiry, m)
	m.side = &q.hidden
	if !m.nextVisible.After(q.asOf) {
		m.side = &q.visible
	}
	heap.Push(m.side, m)
}

func (q *queue) remove(m *message) {
	delete(q.byID, m.id)
	heap.Remove(&q.expiry, m.pos[0])
	heap.Remove(m.side, m.pos[1])
}

// hide re-keys a message whose nextVisible was just pushed into the future.
func (q *queue) hide(m *message) {
	if m.side == &q.hidden {
		heap.Fix(&q.hidden, m.pos[1])
		return
	}
	heap.Remove(&q.visible, m.pos[1])
	m.side = &q.hidden
	heap.Push(&q.hidden, m)
}

// surface brings visible up to date with now: every message whose
// visibility timeout has lapsed moves over from hidden.
func (q *queue) surface(now time.Time) {
	if now.Before(q.asOf) {
		// The clock stepped back (vclock.Manual.Set): messages surfaced
		// for the later instant may be invisible again, so start over.
		for _, m := range q.visible.msgs {
			m.side = &q.hidden
			heap.Push(&q.hidden, m)
		}
		clear(q.visible.msgs)
		q.visible.msgs = q.visible.msgs[:0]
	}
	q.asOf = now
	for len(q.hidden.msgs) > 0 && !q.hidden.msgs[0].nextVisible.After(now) {
		m := heap.Pop(&q.hidden).(*message)
		m.side = &q.visible
		heap.Push(&q.visible, m)
	}
}

// reap drops expired messages; a message with expires == now is expired.
func (q *queue) reap(now time.Time) {
	for len(q.expiry.msgs) > 0 && !q.expiry.msgs[0].expires.After(now) {
		q.remove(q.expiry.msgs[0])
	}
}

// inOrder returns the messages in queue order.
func (q *queue) inOrder() []*message {
	msgs := append([]*message(nil), q.expiry.msgs...)
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].seq < msgs[j].seq })
	return msgs
}
