package sim

// Store is an unbounded FIFO buffer of items with blocking Get. Puts never
// block. When multiple processes are blocked in Get, items are handed to
// them in the order they arrived (strict FIFO fairness).
type Store[T any] struct {
	env     *Env
	name    string
	items   []T
	waiters fifo[*storeWaiter[T]]
}

type storeWaiter[T any] struct {
	p    *Proc
	item T
}

// NewStore creates an empty store.
func NewStore[T any](env *Env, name string) *Store[T] {
	return &Store[T]{env: env, name: name}
}

// Put appends an item. If a process is blocked in Get, the item is handed
// directly to the longest-waiting one, which resumes at the current
// instant.
func (s *Store[T]) Put(item T) {
	if s.waiters.len() > 0 {
		w := s.waiters.pop()
		w.item = item
		s.env.wake(s.env.now, w.p)
		return
	}
	s.items = append(s.items, item)
}

// Get removes and returns the oldest item, blocking until one is available.
func (s *Store[T]) Get(p *Proc) T {
	s.env.mustBeRunning(p, "Store.Get")
	if len(s.items) > 0 {
		item := s.items[0]
		var zero T
		s.items[0] = zero
		s.items = s.items[1:]
		return item
	}
	w := &storeWaiter[T]{p: p}
	s.waiters.push(w)
	p.park()
	return w.item
}
