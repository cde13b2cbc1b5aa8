package sim

// Store is an unbounded FIFO buffer of items with blocking Get. Puts never
// block. When multiple processes are blocked in Get, items are handed to
// them in the order they arrived (strict FIFO fairness).
type Store[T any] struct {
	env     *Env
	name    string
	items   []T
	waiters fifo[*storeWaiter[T]]
	puts    uint64
	gets    uint64
}

type storeWaiter[T any] struct {
	p    *Proc
	item T
}

// NewStore creates an empty store.
func NewStore[T any](env *Env, name string) *Store[T] {
	return &Store[T]{env: env, name: name}
}

// Name returns the store name.
func (s *Store[T]) Name() string { return s.name }

// Len returns the number of buffered items (excluding items already handed
// to waiters that have not yet resumed).
func (s *Store[T]) Len() int { return len(s.items) }

// Puts returns the total number of Put calls.
func (s *Store[T]) Puts() uint64 { return s.puts }

// Gets returns the total number of completed Gets.
func (s *Store[T]) Gets() uint64 { return s.gets }

// Put appends an item. If a process is blocked in Get, the item is handed
// directly to the longest-waiting one, which resumes at the current
// instant.
func (s *Store[T]) Put(item T) {
	s.puts++
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
		s.gets++
		return item
	}
	w := &storeWaiter[T]{p: p}
	s.waiters.push(w)
	p.park()
	s.gets++
	return w.item
}

// TryGet removes and returns the oldest item without blocking.
func (s *Store[T]) TryGet() (T, bool) {
	var zero T
	if len(s.items) == 0 {
		return zero, false
	}
	item := s.items[0]
	s.items[0] = zero
	s.items = s.items[1:]
	s.gets++
	return item, true
}
