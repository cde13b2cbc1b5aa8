package queuestore

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/sim"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// model is the reference implementation the indexed engine is proven
// against: the engine as it stood before the indexes, kept verbatim where
// it matters. Messages live in one slice in insertion order; reap, Peek,
// pickVisible, Delete and Update each walk it from the front. It is
// O(depth) everywhere and obviously right, which is the point. The script
// tests in script_test.go drive it and Store with the same operations under
// one clock and seed and require identical results and Save bytes.
type model struct {
	clock  vclock.Clock
	cfg    Config
	rng    *sim.Rand
	queues map[string]*modelQueue
	popSeq uint64
}

type modelQueue struct {
	name     string
	created  time.Time
	metadata map[string]string
	msgs     []*message
	nextID   uint64
}

func newModel(clock vclock.Clock, cfg Config) *model {
	if cfg.NonFIFOWindow < 1 {
		cfg.NonFIFOWindow = 1
	}
	return &model{clock: clock, cfg: cfg, rng: sim.NewRand(cfg.Seed), queues: map[string]*modelQueue{}}
}

func (s *model) CreateQueue(name string) error {
	if err := storecommon.ValidateQueueName(name); err != nil {
		return err
	}
	if _, ok := s.queues[name]; ok {
		return storecommon.Errf(storecommon.CodeQueueAlreadyExists, 409, "queue %q already exists", name)
	}
	s.queues[name] = &modelQueue{name: name, created: s.clock.Now()}
	return nil
}

func (s *model) DeleteQueue(name string) error {
	if _, ok := s.queues[name]; !ok {
		return queueNotFound(name)
	}
	delete(s.queues, name)
	return nil
}

func (s *model) ClearMessages(name string) error {
	q, ok := s.queues[name]
	if !ok {
		return queueNotFound(name)
	}
	q.msgs = nil
	return nil
}

func (s *model) Put(name string, body payload.Payload, ttl time.Duration) (Message, error) {
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
	q, ok := s.queues[name]
	if !ok {
		return Message{}, queueNotFound(name)
	}
	now := s.clock.Now()
	q.nextID++
	m := &message{
		id:          fmt.Sprintf("%s-msg-%d", name, q.nextID),
		body:        body,
		inserted:    now,
		expires:     now.Add(ttl),
		nextVisible: now,
	}
	q.msgs = append(q.msgs, m)
	return m.view(), nil
}

func (s *model) Get(name string, max int, visibility time.Duration) ([]Message, error) {
	if visibility == 0 {
		visibility = storecommon.DefaultVisibilityTimeout
	}
	if visibility < 0 || visibility > storecommon.MaxVisibilityTimeout {
		return nil, storecommon.Errf(storecommon.CodeInvalidVisibility, 400, "visibility %v out of range", visibility)
	}
	if err := checkBatchSize(max); err != nil {
		return nil, err
	}
	q, ok := s.queues[name]
	if !ok {
		return nil, queueNotFound(name)
	}
	now := s.clock.Now()
	s.reap(q, now)
	var out []Message
	for len(out) < max {
		m := s.pickVisible(q, now)
		if m == nil {
			break
		}
		m.dequeueCount++
		m.nextVisible = now.Add(visibility)
		s.popSeq++
		m.popReceipt = "pr-" + strconv.FormatUint(s.popSeq, 10)
		out = append(out, m.view())
	}
	return out, nil
}

func (s *model) Peek(name string, max int) ([]Message, error) {
	if err := checkBatchSize(max); err != nil {
		return nil, err
	}
	q, ok := s.queues[name]
	if !ok {
		return nil, queueNotFound(name)
	}
	now := s.clock.Now()
	s.reap(q, now)
	var out []Message
	for _, m := range q.msgs {
		if len(out) >= max {
			break
		}
		if !m.nextVisible.After(now) {
			v := m.view()
			v.PopReceipt = ""
			out = append(out, v)
		}
	}
	return out, nil
}

func (s *model) Delete(name, msgID, popReceipt string) error {
	q, ok := s.queues[name]
	if !ok {
		return queueNotFound(name)
	}
	s.reap(q, s.clock.Now())
	for i, m := range q.msgs {
		if m.id != msgID {
			continue
		}
		if m.popReceipt == "" || m.popReceipt != popReceipt {
			return storecommon.Errf(storecommon.CodePopReceiptMismatch, 400, "pop receipt mismatch for %q", msgID)
		}
		q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
		return nil
	}
	return storecommon.Errf(storecommon.CodeMessageNotFound, 404, "message %q not found", msgID)
}

func (s *model) ReplicaDelete(name, msgID string) error {
	q, ok := s.queues[name]
	if !ok {
		return queueNotFound(name)
	}
	s.reap(q, s.clock.Now())
	for i, m := range q.msgs {
		if m.id != msgID {
			continue
		}
		q.msgs = append(q.msgs[:i], q.msgs[i+1:]...)
		return nil
	}
	return storecommon.Errf(storecommon.CodeMessageNotFound, 404, "message %q not found", msgID)
}

func (s *model) Update(name, msgID, popReceipt string, body payload.Payload, visibility time.Duration) (Message, error) {
	if body.Len() > storecommon.MaxMessagePayload {
		return Message{}, storecommon.Errf(storecommon.CodeMessageTooLarge, 400, "updated message too large")
	}
	if visibility == 0 {
		visibility = storecommon.DefaultVisibilityTimeout
	}
	if visibility < 0 || visibility > storecommon.MaxVisibilityTimeout {
		return Message{}, storecommon.Errf(storecommon.CodeInvalidVisibility, 400, "visibility %v out of range", visibility)
	}
	q, ok := s.queues[name]
	if !ok {
		return Message{}, queueNotFound(name)
	}
	now := s.clock.Now()
	s.reap(q, now)
	for _, m := range q.msgs {
		if m.id != msgID {
			continue
		}
		if m.popReceipt == "" || m.popReceipt != popReceipt {
			return Message{}, storecommon.Errf(storecommon.CodePopReceiptMismatch, 400, "pop receipt mismatch for %q", msgID)
		}
		m.body = body
		m.nextVisible = now.Add(visibility)
		s.popSeq++
		m.popReceipt = "pr-" + strconv.FormatUint(s.popSeq, 10)
		return m.view(), nil
	}
	return Message{}, storecommon.Errf(storecommon.CodeMessageNotFound, 404, "message %q not found", msgID)
}

func (s *model) ApproximateCount(name string) (int, error) {
	q, ok := s.queues[name]
	if !ok {
		return 0, queueNotFound(name)
	}
	s.reap(q, s.clock.Now())
	return len(q.msgs), nil
}

func (s *model) pickVisible(q *modelQueue, now time.Time) *message {
	var window []*message
	for _, m := range q.msgs {
		if m.nextVisible.After(now) {
			continue
		}
		window = append(window, m)
		if len(window) == s.cfg.NonFIFOWindow {
			break
		}
	}
	if len(window) == 0 {
		return nil
	}
	return window[s.rng.Intn(len(window))]
}

func (s *model) reap(q *modelQueue, now time.Time) {
	kept := q.msgs[:0]
	for _, m := range q.msgs {
		if m.expires.After(now) {
			kept = append(kept, m)
		}
	}
	for i := len(kept); i < len(q.msgs); i++ {
		q.msgs[i] = nil
	}
	q.msgs = kept
}

func (s *model) Save(w *snap.Writer) {
	w.U64(s.rng.State())
	w.U64(s.popSeq)
	names := make([]string, 0, len(s.queues))
	for k := range s.queues {
		names = append(names, k)
	}
	sort.Strings(names)
	w.Int(len(names))
	for _, name := range names {
		q := s.queues[name]
		w.String(q.name)
		w.Time(q.created)
		w.StringMap(q.metadata)
		w.U64(q.nextID)
		w.Int(len(q.msgs))
		for _, m := range q.msgs {
			saveMessage(w, m)
		}
	}
}
