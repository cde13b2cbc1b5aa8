package sim

import "time"

// Resource is a FIFO queueing station with fixed capacity: at most capacity
// processes hold a unit at once; further acquirers queue in strict FIFO
// order. It models a server (or a pool of identical servers sharing one
// queue).
type Resource struct {
	env      *Env
	id       int32 // index in env.res, by which programs name it
	name     string
	capacity int
	inUse    int
	waiters  fifo[*Proc]

	// Statistics.
	acquired  uint64
	busyTime  time.Duration // integral of inUse over time
	queueTime time.Duration // integral of queue length over time
	lastStamp time.Duration
	maxQueue  int
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(env *Env, name string, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: NewResource with capacity < 1")
	}
	r := &Resource{env: env, id: int32(len(env.res)), name: name, capacity: capacity}
	env.res = append(env.res, r)
	return r
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the configured capacity.
func (r *Resource) Capacity() int { return r.capacity }

func (r *Resource) account() {
	now := r.env.now
	dt := now - r.lastStamp
	r.busyTime += time.Duration(int64(dt) * int64(r.inUse))
	r.queueTime += time.Duration(int64(dt) * int64(r.waiters.len()))
	r.lastStamp = now
}

// Acquire obtains one unit, blocking in FIFO order until one is free.
func (r *Resource) Acquire(p *Proc) {
	r.env.mustBeRunning(p, "Resource.Acquire")
	if r.acquire(p) {
		p.park()
	}
}

// acquire grants p a unit or queues it, and reports whether p has to wait
// for a Release to wake it: Acquire, and the acquire step of Proc.Exec.
func (r *Resource) acquire(p *Proc) (wait bool) {
	r.account()
	r.acquired++
	if r.inUse < r.capacity {
		r.inUse++
		return false
	}
	r.waiters.push(p)
	if n := r.waiters.len(); n > r.maxQueue {
		r.maxQueue = n
	}
	return true
}

// Release returns one unit. If processes are queued the unit transfers to
// the head of the queue, which is re-activated at the current instant.
// Release may be called from any process (it does not block).
func (r *Resource) Release() {
	r.account()
	if r.inUse <= 0 {
		panic("sim: Resource.Release without matching Acquire")
	}
	if r.waiters.len() > 0 {
		// The unit transfers: inUse stays constant.
		r.env.wake(r.env.now, r.waiters.pop())
		return
	}
	r.inUse--
}

// Use acquires the resource, holds it for d of virtual time, and releases
// it. It is the common pattern for modelling a service time at a station.
func (r *Resource) Use(p *Proc, d time.Duration) {
	p.Exec(Acquire(r), Sleep(d), Release(r))
}

// Stats reports utilisation statistics since the start of the simulation.
type ResourceStats struct {
	Acquired   uint64        // completed Acquire grants
	Busy       time.Duration // time-integral of units in use
	QueueTime  time.Duration // time-integral of queue length
	MaxQueue   int           // high-water mark of the waiter queue
	InUse      int           // current units in use
	QueueLen   int           // current waiters
	ObservedAt time.Duration // virtual time of this snapshot
}

// Stats returns a snapshot of utilisation statistics.
func (r *Resource) Stats() ResourceStats {
	r.account()
	return ResourceStats{
		Acquired:   r.acquired,
		Busy:       r.busyTime,
		QueueTime:  r.queueTime,
		MaxQueue:   r.maxQueue,
		InUse:      r.inUse,
		QueueLen:   r.waiters.len(),
		ObservedAt: r.env.now,
	}
}
