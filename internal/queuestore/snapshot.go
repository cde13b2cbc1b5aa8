package queuestore

import (
	"fmt"
	"strconv"
	"strings"

	"azurebench/internal/payload"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
)

// Save appends the full account state: the non-FIFO selection PRNG, the
// pop-receipt sequence, and every queue's messages in queue order
// (message order is semantically significant — it is the FIFO order).
func (s *Store) Save(w *snap.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w.U64(s.rng.State())
	w.U64(s.popSeq)
	names := snap.SortedKeys(s.queues)
	w.Int(len(names))
	for _, name := range names {
		q := s.queues[name]
		w.String(q.name)
		w.Time(q.created)
		w.StringMap(q.metadata)
		w.U64(q.nextID)
		msgs := q.inOrder()
		w.Int(len(msgs))
		for _, m := range msgs {
			saveMessage(w, m)
		}
	}
}

func saveMessage(w *snap.Writer, m *message) {
	w.String(m.id)
	m.body.Save(w)
	w.Time(m.inserted)
	w.Time(m.expires)
	w.Time(m.nextVisible)
	w.Int(m.dequeueCount)
	w.String(m.popReceipt)
}

// Load restores an account saved by Save, replacing all live state and
// rebuilding every queue's indexes. It refuses what Save cannot have
// written and the engine could not serve: a queue or a message ID twice,
// an ID the queue's counter has not reached yet (the next Put would mint
// it again), a body over the payload limit, a negative dequeue count.
func (s *Store) Load(r *snap.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rng.SetState(r.U64())
	s.popSeq = r.U64()
	nq := r.Count()
	queues := make(map[string]*queue, nq)
	for i := 0; i < nq; i++ {
		q := newQueue(r.String(), r.Time())
		q.metadata = r.StringMap()
		q.nextID = r.U64()
		if _, dup := queues[q.name]; dup && r.Err() == nil {
			return fmt.Errorf("%w: queue %q saved twice", snap.ErrCorrupt, q.name)
		}
		nm := r.Count()
		for j := 0; j < nm; j++ {
			m := &message{id: r.String()}
			var err error
			if m.body, err = payload.Load(r); err != nil {
				return err
			}
			m.inserted = r.Time()
			m.expires = r.Time()
			m.nextVisible = r.Time()
			m.dequeueCount = r.Int()
			m.popReceipt = r.String()
			if err := r.Err(); err != nil {
				return err
			}
			if err := q.checkLoaded(m); err != nil {
				return fmt.Errorf("%w: queue %q: %v", snap.ErrCorrupt, q.name, err)
			}
			q.add(m)
		}
		queues[q.name] = q
	}
	if err := r.Err(); err != nil {
		return err
	}
	s.queues = queues
	return nil
}

// checkLoaded holds a loaded message to what the engine itself can have
// stored in q.
func (q *queue) checkLoaded(m *message) error {
	if _, dup := q.byID[m.id]; dup {
		return fmt.Errorf("message %q saved twice", m.id)
	}
	if digits, ok := strings.CutPrefix(m.id, q.name+"-msg-"); ok {
		if n, err := strconv.ParseUint(digits, 10, 64); err == nil && n > q.nextID {
			return fmt.Errorf("message %q is past the ID counter %d", m.id, q.nextID)
		}
	}
	if m.body.Len() > storecommon.MaxMessagePayload {
		return fmt.Errorf("message %q holds %d bytes, over the %d-byte limit", m.id, m.body.Len(), storecommon.MaxMessagePayload)
	}
	if m.dequeueCount < 0 {
		return fmt.Errorf("message %q has dequeue count %d", m.id, m.dequeueCount)
	}
	return nil
}
