package queuestore

import (
	"fmt"

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
		slots := q.inOrder()
		w.Int(len(slots))
		for _, slot := range slots {
			saveMessage(w, q.msg(slot))
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
// rebuilding every queue's indexes. It refuses a queue saved twice, and
// whatever check finds in a queue: what Save cannot have written and the
// engine could not serve.
func (s *Store) Load(r *snap.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rng.SetState(r.U64())
	s.popSeq = r.U64()
	nq := r.Count()
	queues := make(map[string]*queue, nq)
	for i := 0; i < nq; i++ {
		q := &queue{name: r.String(), created: r.Time()}
		q.metadata = r.StringMap()
		q.nextID = r.U64()
		if _, dup := queues[q.name]; dup && r.Err() == nil {
			return fmt.Errorf("%w: queue %q saved twice", snap.ErrCorrupt, q.name)
		}
		nm := r.Count()
		for j := 0; j < nm; j++ {
			slot, m := q.alloc()
			m.id = r.String()
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
			// An ID the queue has not minted stays out of the ID index,
			// where check finds it.
			if n, ok := parseID(q.name, m.id); ok && n <= q.nextID {
				m.num = n
			}
			q.index(slot)
		}
		if err := q.check(); err != nil && r.Err() == nil {
			return fmt.Errorf("%w: queue %q: %v", snap.ErrCorrupt, q.name, err)
		}
		queues[q.name] = q
	}
	if err := r.Err(); err != nil {
		return err
	}
	s.queues = queues
	return nil
}
