package queuestore

import (
	"sort"

	"azurebench/internal/payload"
	snap "azurebench/internal/snapshot"
)

// SnapshotSection implements snap.Snapshotter.
func (s *Store) SnapshotSection() string { return "engine/queue" }

// Save appends the full account state: the non-FIFO selection PRNG, the
// pop-receipt sequence, and every queue's messages in queue order
// (message order is semantically significant — it is the FIFO order).
func (s *Store) Save(w *snap.Writer) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		saveMeta(w, q.metadata)
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
	nq := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	queues := make(map[string]*queue, nq)
	for i := 0; i < nq; i++ {
		q := newQueue(r.String(), r.Time())
		var err error
		if q.metadata, err = loadMeta(r); err != nil {
			return err
		}
		q.nextID = r.U64()
		nm := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		for j := 0; j < nm; j++ {
			m := &message{id: r.String()}
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

func saveMeta(w *snap.Writer, m map[string]string) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.String(k)
		w.String(m[k])
	}
}

func loadMeta(r *snap.Reader) (map[string]string, error) {
	n := r.Int()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.String()
		m[k] = r.String()
	}
	return m, r.Err()
}
