package queuestore

import (
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
	q.expiry = msgHeap{slot: 0, by: byExpiry}
	q.visible = msgHeap{slot: 1, by: bySeq}
	q.hidden = msgHeap{slot: 1, by: byNextVisible}
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

// msgHeap is a binary min-heap of messages in one order that records each
// message's index in m.pos[slot], so a message reached through byID can be
// removed or re-keyed in O(log n). It is container/heap's algorithm with
// each order's comparison written out: no closure, no interface call.
type msgHeap struct {
	msgs []*message
	slot int
	by   heapOrder
}

// heapOrder is the key a msgHeap orders by.
type heapOrder uint8

const (
	byExpiry heapOrder = iota
	bySeq
	byNextVisible
)

func (h *msgHeap) less(i, j int) bool {
	a, b := h.msgs[i], h.msgs[j]
	switch h.by {
	case byExpiry:
		return a.expires.Before(b.expires)
	case bySeq:
		return a.seq < b.seq
	}
	return a.nextVisible.Before(b.nextVisible)
}

func (h *msgHeap) swap(i, j int) {
	h.msgs[i], h.msgs[j] = h.msgs[j], h.msgs[i]
	h.msgs[i].pos[h.slot], h.msgs[j].pos[h.slot] = i, j
}

func (h *msgHeap) push(m *message) {
	m.pos[h.slot] = len(h.msgs)
	h.msgs = append(h.msgs, m)
	h.up(len(h.msgs) - 1)
}

// remove takes out and returns the message at index i.
func (h *msgHeap) remove(i int) *message {
	n := len(h.msgs) - 1
	if n != i {
		h.swap(i, n)
		h.fix(i, n)
	}
	m := h.msgs[n]
	h.msgs[n], h.msgs = nil, h.msgs[:n]
	return m
}

// fix restores the order of h.msgs[:n] after the key of the message at i
// changed.
func (h *msgHeap) fix(i, n int) {
	if !h.down(i, n) {
		h.up(i)
	}
}

func (h *msgHeap) up(j int) {
	for i := (j - 1) / 2; j > 0 && h.less(j, i); i = (j - 1) / 2 {
		h.swap(i, j)
		j = i
	}
}

func (h *msgHeap) down(i0, n int) bool {
	i := i0
	for j := 2*i + 1; j < n; j = 2*i + 1 {
		if j+1 < n && h.less(j+1, j) {
			j++ // the smaller child
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	return i > i0
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
			if h.less(frontier[i], frontier[best]) {
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
	q.expiry.push(m)
	m.side = &q.hidden
	if !m.nextVisible.After(q.asOf) {
		m.side = &q.visible
	}
	m.side.push(m)
}

func (q *queue) remove(m *message) {
	delete(q.byID, m.id)
	q.expiry.remove(m.pos[0])
	m.side.remove(m.pos[1])
}

// hide re-keys a message whose nextVisible was just pushed into the future.
func (q *queue) hide(m *message) {
	if m.side == &q.hidden {
		q.hidden.fix(m.pos[1], len(q.hidden.msgs))
		return
	}
	q.visible.remove(m.pos[1])
	m.side = &q.hidden
	q.hidden.push(m)
}

// surface brings visible up to date with now: every message whose
// visibility timeout has lapsed moves over from hidden.
func (q *queue) surface(now time.Time) {
	if now.Before(q.asOf) {
		// The clock stepped back (vclock.Manual.Set): messages surfaced
		// for the later instant may be invisible again, so start over.
		for _, m := range q.visible.msgs {
			m.side = &q.hidden
			q.hidden.push(m)
		}
		clear(q.visible.msgs)
		q.visible.msgs = q.visible.msgs[:0]
	}
	q.asOf = now
	for len(q.hidden.msgs) > 0 && !q.hidden.msgs[0].nextVisible.After(now) {
		m := q.hidden.remove(0)
		m.side = &q.visible
		q.visible.push(m)
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
