package queuestore

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
)

// queue indexes its messages so that every operation costs what it
// touches, not the queue's depth, and its indexes hold no heap pointer.
// Queue order is insertion order (seq): a message whose visibility timeout
// lapses regains its original position.
//
// Messages live in a slab of fixed-size chunks, named by their slot. The ID
// index maps a message's number n (its ID is "<queue>-msg-<n>") to its
// slot. Three orders hold entries naming slots: expiry, visible (queue
// order) and hidden (nextVisible). Every message is in the ID index and in
// expiry, and in exactly one of visible and hidden, its side. Messages in
// visible have nextVisible <= asOf; surface moves messages across as the
// clock passes their nextVisible.
type queue struct {
	name     string
	created  time.Time
	metadata map[string]string
	nextID   uint64

	seq    uint64 // insertion counter, not persisted: Load renumbers
	chunks []*chunk
	used   int32   // slots handed out so far
	free   []int32 // slots below used that hold no message
	live   int     // messages held

	// The ID index: message base+i is in slot win[off+i]-1 (0: none).
	// Messages left below the window are strays.
	base   uint64
	win    []int32
	off    int
	strays map[uint64]int32

	orders [3]order  // indexed by byExpiry, byVisible, byHidden
	asOf   time.Time // the latest instant surface has run for
}

const (
	byExpiry  = 0
	byVisible = 1
	byHidden  = 2

	chunkBits = 6
	chunkSize = 1 << chunkBits
)

type message struct {
	id           string
	body         payload.Payload
	inserted     time.Time
	expires      time.Time
	nextVisible  time.Time
	dequeueCount int
	popReceipt   string // valid while the message is invisible from a Get

	num  uint64 // the n of its ID; 0 when the ID has none
	seq  uint64 // position in queue order
	side uint8  // byVisible or byHidden; 0 for a free slot
}

// chunk is chunkSize slots of the slab; a chunk never moves. Per order, a
// slot's token is the one its message's current entry carries. Tokens
// outlive messages, so an old entry of a reused slot stays stale, and they
// sit apart from the messages, so the checks at an order's front read one
// small array.
type chunk struct {
	tok [chunkSize][3]uint64
	msg [chunkSize]message
}

// entry is a message's place in one order. A message leaves an order, or
// is re-keyed in it, by bumping its token there, which makes the entry
// stale. Stale entries are dropped when they reach the front, or all at
// once when they outnumber the live ones.
type entry struct {
	key  int64 // Unix seconds of a time key; seq in queue order
	nsec int32
	slot int32
	tok  uint64
}

func (a entry) less(b entry) bool {
	return a.key < b.key || a.key == b.key && a.nsec < b.nsec
}

// timeEntry keys t. The keys compare as Before does for instants without a
// monotonic reading, the only ones the store holds (Store.now).
func timeEntry(t time.Time) entry { return entry{key: t.Unix(), nsec: int32(t.Nanosecond())} }

// order is one order of entries. An entry not below the tail of the run
// joins the run, so in-order traffic (constant TTLs and timeouts, queue
// order at put time) costs O(1) per push and pop; any other goes to a
// binary min-heap. The front is the lesser of the two fronts.
type order struct {
	run   []entry // ascending; run[head:] is what is left of it
	head  int
	heap  []entry
	n     int // live entries
	stale int
}

func (o *order) push(e entry) {
	if o.head == len(o.run) {
		o.run, o.head = o.run[:0], 0
	}
	if len(o.run) > o.head && e.less(o.run[len(o.run)-1]) {
		o.heap = append(o.heap, e)
		for j, i := len(o.heap)-1, (len(o.heap)-2)/2; j > 0 && o.heap[j].less(o.heap[i]); j, i = i, (i-1)/2 {
			o.heap[i], o.heap[j] = o.heap[j], o.heap[i]
		}
		return
	}
	if len(o.run) == cap(o.run) && o.head >= len(o.run)/2 {
		o.run, o.head = o.run[:copy(o.run, o.run[o.head:])], 0 // reuse the consumed half
	}
	o.run = append(o.run, e)
}

func (o *order) down(i int) {
	h := o.heap
	for j := 2*i + 1; j < len(h); j = 2*i + 1 {
		if j+1 < len(h) && h[j+1].less(h[j]) {
			j++ // the smaller child
		}
		if !h[j].less(h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (o *order) pop() {
	n := len(o.heap) - 1
	o.heap[0], o.heap = o.heap[n], o.heap[:n]
	o.down(0)
}

func (q *queue) msg(slot int32) *message {
	return &q.chunks[slot>>chunkBits].msg[slot&(chunkSize-1)]
}

func (q *queue) tok(slot int32) *[3]uint64 {
	return &q.chunks[slot>>chunkBits].tok[slot&(chunkSize-1)]
}

func (q *queue) stale(o int, e entry) bool { return q.tok(e.slot)[o] != e.tok }

// front returns order o's least live entry, dropping the stale entries
// ahead of it.
func (q *queue) front(o int) (entry, bool) {
	ord := &q.orders[o]
	for ; ord.head < len(ord.run) && q.stale(o, ord.run[ord.head]); ord.stale-- {
		ord.head++
	}
	for ; len(ord.heap) > 0 && q.stale(o, ord.heap[0]); ord.stale-- {
		ord.pop()
	}
	switch {
	case ord.head < len(ord.run) && (len(ord.heap) == 0 || !ord.heap[0].less(ord.run[ord.head])):
		return ord.run[ord.head], true
	case len(ord.heap) > 0:
		return ord.heap[0], true
	}
	return entry{}, false
}

// entry is the message in slot as order o files it now.
func (q *queue) entry(o int, slot int32) entry {
	m := q.msg(slot)
	e := entry{key: int64(m.seq)}
	if o == byExpiry {
		e = timeEntry(m.expires)
	} else if o == byHidden {
		e = timeEntry(m.nextVisible)
	}
	e.slot, e.tok = slot, q.tok(slot)[o]
	return e
}

func (q *queue) file(o int, slot int32) {
	q.orders[o].push(q.entry(o, slot))
	q.orders[o].n++
}

// unfile takes the message in slot out of order o: its entry goes stale.
func (q *queue) unfile(o int, slot int32) {
	q.tok(slot)[o]++
	ord := &q.orders[o]
	if ord.n--; ord.stale < ord.n {
		ord.stale++
		return
	}
	run, heap := ord.run[:0], ord.heap[:0]
	for _, e := range ord.run[ord.head:] {
		if !q.stale(o, e) {
			run = append(run, e)
		}
	}
	for _, e := range ord.heap {
		if !q.stale(o, e) {
			heap = append(heap, e)
		}
	}
	*ord = order{run: run, heap: heap, n: ord.n}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		ord.down(i)
	}
}

// smallest appends to out, in ascending order, the slots of the k least
// live entries of order o. The heap's k least are popped into scratch and
// pushed back after; the run is walked from its head.
func (q *queue) smallest(o, k int, out []int32, scratch []entry) ([]int32, []entry) {
	ord := &q.orders[o]
	out, scratch = out[:0], scratch[:0]
	for q.front(o); len(scratch) < k && len(ord.heap) > 0; q.front(o) {
		scratch = append(scratch, ord.heap[0])
		ord.pop()
	}
	for i, j := ord.head, 0; len(out) < k; {
		for i < len(ord.run) && q.stale(o, ord.run[i]) {
			i++
		}
		if j < len(scratch) && (i == len(ord.run) || scratch[j].less(ord.run[i])) {
			out, j = append(out, scratch[j].slot), j+1
		} else if i < len(ord.run) {
			out, i = append(out, ord.run[i].slot), i+1
		} else {
			break
		}
	}
	for _, e := range scratch {
		ord.push(e)
	}
	return out, scratch
}

// alloc returns a free slot for a new message; the caller writes the
// message into it, then indexes it.
func (q *queue) alloc() (int32, *message) {
	slot := q.used
	if k := len(q.free); k > 0 {
		slot, q.free = q.free[k-1], q.free[:k-1]
	} else if q.used++; int(slot) == len(q.chunks)*chunkSize {
		q.chunks = append(q.chunks, new(chunk))
	}
	return slot, q.msg(slot)
}

// index files the message just written into slot at the tail of queue
// order. A message whose ID has no number (Load) stays out of the ID
// index, where check finds it.
func (q *queue) index(slot int32) {
	m := q.msg(slot)
	q.seq++
	m.seq, m.side = q.seq, byHidden
	if !m.nextVisible.After(q.asOf) {
		m.side = byVisible
	}
	q.live++
	if m.num > 0 {
		q.fileID(m.num, slot)
	}
	q.file(byExpiry, slot)
	q.file(int(m.side), slot)
}

func (q *queue) remove(slot int32) {
	m := q.msg(slot)
	q.unfile(byExpiry, slot)
	q.unfile(int(m.side), slot)
	if m.num >= q.base && m.num-q.base < uint64(len(q.win)-q.off) {
		q.win[q.off+int(m.num-q.base)] = 0
		q.trim()
	} else {
		delete(q.strays, m.num)
	}
	*m = message{}
	q.live--
	q.free = append(q.free, slot)
}

// hide re-keys a message whose nextVisible was just pushed into the future.
func (q *queue) hide(slot int32) {
	m := q.msg(slot)
	q.unfile(int(m.side), slot)
	m.side = byHidden
	q.file(byHidden, slot)
}

// surface brings visible up to date with now: every message whose
// visibility timeout has lapsed moves over from hidden.
func (q *queue) surface(now time.Time) {
	if now.Before(q.asOf) {
		// The clock stepped back (vclock.Manual.Set): messages surfaced
		// for the later instant may be invisible again, so start over.
		for slot := int32(0); slot < q.used; slot++ {
			if m := q.msg(slot); m.side == byVisible {
				m.side = byHidden
				q.file(byHidden, slot)
			}
		}
		q.orders[byVisible] = order{run: q.orders[byVisible].run[:0], heap: q.orders[byVisible].heap[:0]}
	}
	q.asOf = now
	for at := timeEntry(now); ; {
		e, ok := q.front(byHidden)
		if !ok || at.less(e) {
			return
		}
		q.unfile(byHidden, e.slot)
		q.msg(e.slot).side = byVisible
		q.file(byVisible, e.slot)
	}
}

// reap drops expired messages; a message with expires == now is expired.
func (q *queue) reap(now time.Time) {
	for at := timeEntry(now); ; {
		e, ok := q.front(byExpiry)
		if !ok || at.less(e) {
			return
		}
		q.remove(e.slot)
	}
}

// find returns the slot of message n, or of the message with ID id when
// id is not "".
func (q *queue) find(n uint64, id string) (int32, bool) {
	if id != "" {
		var ok bool
		if n, ok = parseID(q.name, id); !ok {
			return 0, false
		}
	}
	if n >= q.base && n-q.base < uint64(len(q.win)-q.off) {
		s := q.win[q.off+int(n-q.base)]
		return s - 1, s != 0
	}
	s, ok := q.strays[n]
	return s, ok
}

// fileID enters message n in the ID index. The window covers at most
// twice the live messages plus a constant: the messages at its front that
// would hold it open wider, a straggler or the far side of a gap, become
// strays first.
func (q *queue) fileID(n uint64, slot int32) {
	for q.off < len(q.win) && n >= q.base && n-q.base >= uint64(2*q.live+64) {
		if s := q.win[q.off]; s != 0 {
			q.stray(q.base, s-1)
		}
		q.win[q.off] = 0
		q.trim()
	}
	if q.off == len(q.win) {
		q.base, q.win, q.off = n, q.win[:0], 0
	}
	if n < q.base {
		q.stray(n, slot)
		return
	}
	for uint64(len(q.win)-q.off) <= n-q.base {
		if len(q.win) == cap(q.win) && q.off >= len(q.win)/2 {
			q.win, q.off = q.win[:copy(q.win, q.win[q.off:])], 0
		}
		q.win = append(q.win, 0)
	}
	q.win[q.off+int(n-q.base)] = slot + 1
}

func (q *queue) stray(n uint64, slot int32) {
	if q.strays == nil {
		q.strays = map[uint64]int32{}
	}
	q.strays[n] = slot
}

// trim drops the holes at the window's front.
func (q *queue) trim() {
	for ; q.off < len(q.win) && q.win[q.off] == 0; q.base++ {
		q.off++
	}
}

// parseID returns n for an ID "<queue>-msg-<n>" with 1 <= n written in
// canonical digits: the IDs the queue mints.
func parseID(queue, id string) (uint64, bool) {
	rest, ok := strings.CutPrefix(id, queue)
	digits, msg := strings.CutPrefix(rest, "-msg-")
	if !ok || !msg || digits == "" || digits[0] < '1' || digits[0] > '9' {
		return 0, false
	}
	n, err := strconv.ParseUint(digits, 10, 64)
	return n, err == nil
}

// inOrder returns the slots of the messages in queue order.
func (q *queue) inOrder() []int32 {
	var slots []int32
	for slot := int32(0); slot < q.used; slot++ {
		if q.msg(slot).side != 0 {
			slots = append(slots, slot)
		}
	}
	slices.SortFunc(slots, func(a, b int32) int { return cmp.Compare(q.msg(a).seq, q.msg(b).seq) })
	return slots
}

// check reports the first way q breaks what its indexes promise, or holds
// a message the engine cannot have stored: every ID is "<queue>-msg-<n>"
// with 1 <= n <= nextID, held once; the slab's live and free slots, the ID
// index and the three orders agree on the messages; each message is
// current in expiry and in the one of visible and hidden its side names,
// under its own key; the runs ascend and the heaps are heaps; the live and
// stale counts are exact; a visible message's nextVisible is at or before
// asOf; no body is over the payload limit and no dequeue count negative.
func (q *queue) check() error {
	var sides [3]int
	free := make(map[int32]bool, len(q.free))
	for _, slot := range q.free {
		if slot < 0 || slot >= q.used || free[slot] || q.msg(slot).side != 0 {
			return fmt.Errorf("slot %d is on the free list wrongly", slot)
		}
		free[slot] = true
	}
	for slot := int32(0); slot < q.used; slot++ {
		m := q.msg(slot)
		n, ok := parseID(q.name, m.id)
		at, found := q.find(n, "")
		switch {
		case m.side == 0 && free[slot]:
			continue
		case m.side == 0:
			return fmt.Errorf("slot %d is neither live nor free", slot)
		case !ok:
			return fmt.Errorf("message %q is not an ID this queue mints", m.id)
		case n > q.nextID:
			return fmt.Errorf("message %q is past the ID counter %d", m.id, q.nextID)
		case found && at != slot && q.msg(at).id == m.id:
			return fmt.Errorf("message %q saved twice", m.id)
		case !found || at != slot || m.num != n:
			return fmt.Errorf("the ID index misses message %q", m.id)
		case m.side > byHidden || m.side == byVisible && m.nextVisible.After(q.asOf):
			return fmt.Errorf("message %q is on the wrong side", m.id)
		case m.body.Len() > storecommon.MaxMessagePayload:
			return fmt.Errorf("message %q holds %d bytes, over the %d-byte limit", m.id, m.body.Len(), storecommon.MaxMessagePayload)
		case m.dequeueCount < 0:
			return fmt.Errorf("message %q has dequeue count %d", m.id, m.dequeueCount)
		}
		sides[byExpiry]++
		sides[m.side]++
	}
	indexed := len(q.strays)
	for _, s := range q.win[q.off:] {
		if s != 0 {
			indexed++
		}
	}
	if sides[byExpiry] != q.live || indexed != q.live || len(q.free) != int(q.used)-q.live {
		return fmt.Errorf("%d messages counted %d, indexed %d, with %d of %d slots free", sides[byExpiry], q.live, indexed, len(q.free), q.used)
	}
	for o, want := range sides {
		ord := &q.orders[o]
		run, current := ord.run[ord.head:], make(map[int32]bool, want)
		for i, e := range append(slices.Clip(run), ord.heap...) {
			h := i - len(run)
			switch {
			case h < 0 && i > 0 && e.less(run[i-1]), h > 0 && e.less(ord.heap[(h-1)/2]):
				return fmt.Errorf("order %d is out of order", o)
			case e.slot < 0 || e.slot >= q.used:
				return fmt.Errorf("order %d names slot %d past the slab", o, e.slot)
			case q.stale(o, e):
				continue
			case current[e.slot] || e != q.entry(o, e.slot) || o != byExpiry && int(q.msg(e.slot).side) != o:
				return fmt.Errorf("order %d files slot %d wrongly", o, e.slot)
			}
			current[e.slot] = true
		}
		if len(current) != want || ord.n != want || ord.stale != len(run)+len(ord.heap)-want {
			return fmt.Errorf("order %d holds %d of %d messages, counting %d live and %d stale", o, len(current), want, ord.n, ord.stale)
		}
	}
	return nil
}
