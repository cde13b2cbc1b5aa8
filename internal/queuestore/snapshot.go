package queuestore

import (
	"azurebench/internal/payload"
	snap "azurebench/internal/snapshot"
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
// rebuilding every queue's indexes.
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
