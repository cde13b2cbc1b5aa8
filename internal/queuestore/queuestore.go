// Package queuestore implements the Windows Azure Queue storage engine:
// named queues of messages with insertion TTL, per-dequeue visibility
// timeouts, pop receipts, Peek vs Get semantics, and (optionally) the
// service's documented lack of a FIFO guarantee.
//
// The semantics the paper's benchmark leans on are all here: GetMessage
// hides the message from other consumers for the visibility timeout and
// must be followed by DeleteMessage; PeekMessage observes without hiding;
// an undeleted message reappears; messages expire after their TTL (one
// week in the October 2011 API, which obsoleted the two-hour limit the
// paper calls out); and the approximate message count drives the queue
// based barrier of Algorithm 2.
package queuestore

import (
	"cmp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// Config tunes engine behaviour.
type Config struct {
	// NonFIFOWindow is the number of leading visible messages Get chooses
	// from. 1 (the default via NewStore) yields strict FIFO; larger values
	// emulate Azure's lack of ordering guarantee.
	NonFIFOWindow int
	// Seed feeds the deterministic PRNG used for non-FIFO selection.
	Seed int64
}

// Store is an in-memory queue storage account. All methods are safe for
// concurrent use.
type Store struct {
	mu     sync.Mutex
	clock  vclock.Clock
	cfg    Config
	rng    *sim.Rand
	queues map[string]*queue
	popSeq uint64

	// Scratch for queue.smallest, reused under mu.
	window  []int32
	scratch []entry
}

// Message is the client-visible view of a queue message.
type Message struct {
	ID           string
	Body         payload.Payload
	Inserted     time.Time
	Expires      time.Time
	NextVisible  time.Time
	DequeueCount int
	// PopReceipt authorises Delete/Update; empty for peeked messages.
	PopReceipt string
}

// New creates an empty queue store with strict FIFO delivery.
func New(clock vclock.Clock) *Store {
	return NewWithConfig(clock, Config{NonFIFOWindow: 1})
}

// NewWithConfig creates a queue store with explicit behaviour knobs.
func NewWithConfig(clock vclock.Clock, cfg Config) *Store {
	if cfg.NonFIFOWindow < 1 {
		cfg.NonFIFOWindow = 1
	}
	return &Store{
		clock:  clock,
		cfg:    cfg,
		rng:    sim.NewRand(cfg.Seed),
		queues: map[string]*queue{},
	}
}

// CreateQueue creates a queue; creating an existing queue fails with
// QueueAlreadyExists.
func (s *Store) CreateQueue(name string) error {
	if err := storecommon.ValidateQueueName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.queues[name]; ok {
		return storecommon.Errf(storecommon.CodeQueueAlreadyExists, 409, "queue %q already exists", name)
	}
	s.queues[name] = &queue{name: name, created: s.now()}
	return nil
}

// CreateQueueIfNotExists creates name if absent; it reports whether a
// queue was created.
func (s *Store) CreateQueueIfNotExists(name string) (bool, error) {
	err := s.CreateQueue(name)
	if storecommon.IsConflict(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// DeleteQueue removes the queue and all its messages.
func (s *Store) DeleteQueue(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.queues[name]; !ok {
		return queueNotFound(name)
	}
	delete(s.queues, name)
	return nil
}

// ListQueues returns queue names with the given prefix, sorted.
func (s *Store) ListQueues(prefix string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for name := range s.queues {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ClearMessages removes all messages from the queue.
func (s *Store) ClearMessages(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[name]
	if !ok {
		return queueNotFound(name)
	}
	*q = queue{name: q.name, created: q.created, metadata: q.metadata, nextID: q.nextID, seq: q.seq, asOf: q.asOf}
	return nil
}

// Put inserts a message with the given time-to-live (0 means the maximum,
// one week). The payload may be at most 48 KB, the usable fraction of the
// 64 KB wire limit the paper measured.
func (s *Store) Put(name string, body payload.Payload, ttl time.Duration) (Message, error) {
	if body.Len() > storecommon.MaxMessagePayload {
		return Message{}, storecommon.Errf(storecommon.CodeMessageTooLarge, 400,
			"message of %d bytes exceeds the %d-byte usable payload", body.Len(), storecommon.MaxMessagePayload)
	}
	if ttl < 0 || ttl > storecommon.MaxMessageTTL {
		return Message{}, storecommon.Errf(storecommon.CodeInvalidInput, 400, "ttl %v outside (0, %v]", ttl, storecommon.MaxMessageTTL)
	}
	if ttl == 0 {
		ttl = storecommon.MaxMessageTTL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[name]
	if !ok {
		return Message{}, queueNotFound(name)
	}
	now := s.now()
	q.surface(now) // so the new message, visible at once, is filed as such
	q.nextID++
	slot, m := q.alloc()
	m.id, m.num, m.body = messageID(name, q.nextID), q.nextID, body
	m.inserted, m.expires, m.nextVisible = now, now.Add(ttl), now
	q.index(slot)
	return m.view(), nil
}

// Get dequeues up to max visible messages (1 to MaxMessagesPerCall, the
// service's numofmessages contract), hiding each for the visibility
// timeout (0 means the 30 s default). Each returned message carries a pop
// receipt for Delete/Update. Fewer than max (possibly zero) messages are
// returned when the queue has fewer visible messages.
func (s *Store) Get(name string, max int, visibility time.Duration) ([]Message, error) {
	return s.get(name, max, visibility, nil)
}

// GetOne dequeues a single message; ok is false when the queue is empty
// (of visible messages).
func (s *Store) GetOne(name string, visibility time.Duration) (Message, bool, error) {
	var one [1]Message
	msgs, err := s.get(name, 1, visibility, one[:0])
	return one[0], len(msgs) == 1, err
}

// get is Get appending to out, which GetOne backs with its own array.
func (s *Store) get(name string, max int, visibility time.Duration, out []Message) ([]Message, error) {
	visibility, err := checkVisibility(visibility)
	if err != nil {
		return nil, err
	}
	if err := checkBatchSize(max); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	q, err := s.open(name, now)
	if err != nil {
		return nil, err
	}
	for len(out) < max {
		m := s.take(q, now, visibility)
		if m == nil {
			break
		}
		out = append(out, m.view())
	}
	return out, nil
}

// take dequeues the head of q's visible messages or — when the non-FIFO
// window is larger than one — a random choice among the first window
// visible messages, emulating Azure's lack of a FIFO guarantee. It returns
// nil when no message is visible. The caller holds mu and has reaped and
// surfaced q.
func (s *Store) take(q *queue, now time.Time, visibility time.Duration) *message {
	s.window, s.scratch = q.smallest(byVisible, s.cfg.NonFIFOWindow, s.window, s.scratch)
	if len(s.window) == 0 {
		return nil
	}
	slot := s.window[s.rng.Intn(len(s.window))]
	m := q.msg(slot)
	m.dequeueCount++
	m.nextVisible = now.Add(visibility)
	m.popReceipt = s.nextPopReceipt()
	q.hide(slot)
	return m
}

// Peek returns up to max (1 to MaxMessagesPerCall) visible messages
// without dequeuing them. Peeked messages carry no pop receipt and their
// dequeue count is unchanged.
func (s *Store) Peek(name string, max int) ([]Message, error) {
	return s.peek(name, max, nil)
}

// PeekOne peeks a single message; ok is false when no message is visible.
func (s *Store) PeekOne(name string) (Message, bool, error) {
	var one [1]Message
	msgs, err := s.peek(name, 1, one[:0])
	return one[0], len(msgs) == 1, err
}

// peek is Peek appending to out, which PeekOne backs with its own array.
func (s *Store) peek(name string, max int, out []Message) ([]Message, error) {
	if err := checkBatchSize(max); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	q, err := s.open(name, s.now())
	if err != nil {
		return nil, err
	}
	s.window, s.scratch = q.smallest(byVisible, max, s.window, s.scratch)
	for _, slot := range s.window {
		v := q.msg(slot).view()
		v.PopReceipt = ""
		out = append(out, v)
	}
	return out, nil
}

// Receive is ApproximateCount followed by GetOne — or, when peek is set,
// by PeekOne — under one lock. It writes the message it dequeues or peeks
// into *out, leaving *out alone when ok is false, and returns the depth
// ApproximateCount would have: 0 for a queue that does not exist. An
// invalid visibility (ignored for a peek) fails the call, but the depth
// is reported all the same.
func (s *Store) Receive(name string, peek bool, visibility time.Duration, out *Message) (depth int, ok bool, err error) {
	if !peek {
		visibility, err = checkVisibility(visibility)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	q, qerr := s.open(name, now)
	if q == nil {
		return 0, false, cmp.Or(err, qerr)
	}
	if depth = q.live; err != nil {
		return depth, false, err
	}
	if peek {
		if s.window, s.scratch = q.smallest(byVisible, 1, s.window, s.scratch); len(s.window) == 1 {
			*out = q.msg(s.window[0]).view()
			out.PopReceipt = ""
			return depth, true, nil
		}
	} else if m := s.take(q, now, visibility); m != nil {
		*out = m.view()
		return depth, true, nil
	}
	return depth, false, nil
}

// Delete removes a previously dequeued message. The pop receipt must be
// the one issued by the most recent Get and the message must not have
// become visible and been re-dequeued since.
func (s *Store) Delete(name, msgID, popReceipt string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, slot, err := s.find(name, msgID, s.now())
	if err != nil {
		return err
	}
	if m := q.msg(slot); m.popReceipt == "" || m.popReceipt != popReceipt {
		return popReceiptMismatch(msgID)
	}
	q.remove(slot)
	return nil
}

// ReplicaDelete removes a message by ID without a pop receipt. It exists
// for the geo-replication apply path: the secondary replays the primary's
// committed DeleteMessage without ever having dequeued the message itself,
// so no receipt can exist there. Not part of the client-facing API.
func (s *Store) ReplicaDelete(name, msgID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, slot, err := s.find(name, msgID, s.now())
	if err != nil {
		return err
	}
	q.remove(slot)
	return nil
}

// Update replaces the body of a dequeued message and resets its visibility
// timeout, returning the new pop receipt (the 2011-era Update Message
// API). The supplied pop receipt must be current.
func (s *Store) Update(name, msgID, popReceipt string, body payload.Payload, visibility time.Duration) (Message, error) {
	if body.Len() > storecommon.MaxMessagePayload {
		return Message{}, storecommon.Errf(storecommon.CodeMessageTooLarge, 400, "updated message too large")
	}
	visibility, err := checkVisibility(visibility)
	if err != nil {
		return Message{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	q, slot, err := s.find(name, msgID, now)
	if err != nil {
		return Message{}, err
	}
	m := q.msg(slot)
	if m.popReceipt == "" || m.popReceipt != popReceipt {
		return Message{}, popReceiptMismatch(msgID)
	}
	m.body = body
	m.nextVisible = now.Add(visibility)
	m.popReceipt = s.nextPopReceipt()
	q.hide(slot)
	return m.view(), nil
}

// ApproximateCount returns the approximate number of messages in the
// queue, including currently invisible ones — the semantics the paper's
// queue-based barrier (Algorithm 2) relies on.
func (s *Store) ApproximateCount(name string) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queues[name]
	if !ok {
		return 0, queueNotFound(name)
	}
	q.reap(s.now())
	return q.live, nil
}

// now reads the store's clock without its monotonic reading, if any
// (vclock.Real's), so that the instants the store keeps and compares order
// by their wall reading alone, as the index keys do (timeKey).
func (s *Store) now() time.Time { return s.clock.Now().Round(0) }

// open returns queue name, its expired messages dropped and its lapsed
// ones surfaced at now. The caller holds mu.
func (s *Store) open(name string, now time.Time) (*queue, error) {
	q, ok := s.queues[name]
	if !ok {
		return nil, queueNotFound(name)
	}
	q.reap(now)
	q.surface(now)
	return q, nil
}

// find opens the queue and looks a message up by ID. The caller holds mu.
func (s *Store) find(name, msgID string, now time.Time) (*queue, int32, error) {
	q, err := s.open(name, now)
	if err != nil {
		return nil, 0, err
	}
	slot, ok := q.find(0, msgID)
	if !ok {
		return nil, 0, storecommon.Errf(storecommon.CodeMessageNotFound, 404, "message %q not found", msgID)
	}
	return q, slot, nil
}

// messageID names the n-th message put on queue: "<queue>-msg-<n>". It is
// built in place, so the string is its only allocation.
func messageID(queue string, n uint64) string {
	var buf [96]byte // a queue name is at most 63 bytes
	return string(strconv.AppendUint(append(append(buf[:0], queue...), "-msg-"...), n, 10))
}

// nextPopReceipt issues the next pop receipt, "pr-<n>". The caller holds
// mu.
func (s *Store) nextPopReceipt() string {
	s.popSeq++
	var buf [24]byte
	return string(strconv.AppendUint(append(buf[:0], "pr-"...), s.popSeq, 10))
}

func (m *message) view() Message {
	return Message{
		ID:           m.id,
		Body:         m.body,
		Inserted:     m.inserted,
		Expires:      m.expires,
		NextVisible:  m.nextVisible,
		DequeueCount: m.dequeueCount,
		PopReceipt:   m.popReceipt,
	}
}

// checkVisibility defaults a visibility timeout of 0 and refuses one out
// of range.
func checkVisibility(visibility time.Duration) (time.Duration, error) {
	if visibility == 0 {
		visibility = storecommon.DefaultVisibilityTimeout
	}
	if visibility < 0 || visibility > storecommon.MaxVisibilityTimeout {
		return 0, storecommon.Errf(storecommon.CodeInvalidVisibility, 400, "visibility %v out of range", visibility)
	}
	return visibility, nil
}

// checkBatchSize enforces the service's numofmessages contract on Get and
// Peek, so one request cannot hide a whole queue.
func checkBatchSize(max int) error {
	if max < 1 || max > storecommon.MaxMessagesPerCall {
		return storecommon.Errf(storecommon.CodeOutOfRangeQueryParameterValue, 400,
			"numofmessages %d outside [1, %d]", max, storecommon.MaxMessagesPerCall)
	}
	return nil
}

func popReceiptMismatch(msgID string) error {
	return storecommon.Errf(storecommon.CodePopReceiptMismatch, 400, "pop receipt mismatch for %q", msgID)
}

func queueNotFound(name string) error {
	return storecommon.Errf(storecommon.CodeQueueNotFound, 404, "queue %q not found", name)
}
