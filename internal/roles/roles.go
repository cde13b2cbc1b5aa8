// Package roles implements the paper's generic application framework for
// scientific applications on Azure (Section III, Figure 3): a task
// assignment queue fed by a web role, worker roles that poll it, a
// termination indicator queue for progress/termination signalling, and the
// queue-message barrier of Algorithm 2 — including the subtlety the paper
// describes, where barrier messages from earlier phases must be accounted
// for rather than deleted.
package roles

import (
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
)

// DefaultPollInterval is how long pollers sleep between queue probes (the
// paper: "each worker sleeps for a second before issuing the next
// request", to avoid throttling the queue).
const DefaultPollInterval = time.Second

// Barrier is the queue-based barrier of Algorithm 2. All workers share one
// synchronization queue; each Wait puts one message and then polls the
// approximate message count until workers×phase messages have accumulated.
// Messages are never deleted — each worker instead tracks how many phases
// it has completed (the synccount of Algorithm 2), because deleting
// messages would strand workers still inside the previous phase.
type Barrier struct {
	Queue   string
	Workers int
	Poll    time.Duration // defaults to DefaultPollInterval

	phase int // completed synchronisation phases (synccount)
}

// NewBarrier returns a barrier for the given worker count over queue.
// Each worker must own its Barrier value (it carries the worker-local
// phase counter).
func NewBarrier(queue string, workers int) *Barrier {
	return &Barrier{Queue: queue, Workers: workers, Poll: DefaultPollInterval}
}

// Wait blocks until all workers have arrived at this barrier phase.
func (b *Barrier) Wait(p *sim.Proc, cl *cloud.Client) error {
	b.phase++
	if _, err := cl.PutMessage(p, b.Queue, payload.String("barrier")); err != nil {
		return err
	}
	target := b.Workers * b.phase
	poll := b.Poll
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	for {
		arrived, err := cl.GetMessageCount(p, b.Queue)
		if err != nil {
			return err
		}
		if arrived >= target {
			return nil
		}
		p.Sleep(poll)
	}
}

// Task is one unit of work drawn from a task queue.
type Task struct {
	ID         string
	Body       payload.Payload
	popReceipt string
}

// TaskPool wraps a queue used as a shared task pool with built-in fault
// tolerance: a task claimed by a worker that dies reappears after the
// visibility timeout and is picked up by another worker.
type TaskPool struct {
	Queue      string
	Visibility time.Duration // claim duration; 0 = service default (30 s)
	Poll       time.Duration // sleep between empty polls
}

// NewTaskPool returns a pool over queue with the given claim visibility.
func NewTaskPool(queue string, visibility time.Duration) *TaskPool {
	return &TaskPool{Queue: queue, Visibility: visibility, Poll: DefaultPollInterval}
}

// Submit enqueues one task.
func (tp *TaskPool) Submit(p *sim.Proc, cl *cloud.Client, body payload.Payload) error {
	_, err := cl.PutMessage(p, tp.Queue, body)
	return err
}

// TryNext claims a task without waiting; ok is false when no task is
// visible right now.
func (tp *TaskPool) TryNext(p *sim.Proc, cl *cloud.Client) (Task, bool, error) {
	msg, ok, err := cl.GetMessage(p, tp.Queue, tp.Visibility)
	if err != nil || !ok {
		return Task{}, false, err
	}
	return Task{ID: msg.ID, Body: msg.Body, popReceipt: msg.PopReceipt}, true, nil
}

// Complete deletes a finished task from the pool. It must be called before
// the claim's visibility timeout expires, or another worker may already
// have re-claimed the task (the error surfaces as a pop-receipt mismatch).
func (tp *TaskPool) Complete(p *sim.Proc, cl *cloud.Client, task Task) error {
	return cl.DeleteMessage(p, tp.Queue, task.ID, task.popReceipt)
}

// Indicator is the termination indicator queue of Figure 3: workers put a
// message per completed unit, the web role polls the count to drive the
// user interface and detect termination.
type Indicator struct {
	Queue string
	Poll  time.Duration
}

// NewIndicator returns an indicator over queue.
func NewIndicator(queue string) *Indicator {
	return &Indicator{Queue: queue, Poll: DefaultPollInterval}
}

// Signal records one completed unit.
func (in *Indicator) Signal(p *sim.Proc, cl *cloud.Client) error {
	_, err := cl.PutMessage(p, in.Queue, payload.String("done"))
	return err
}

// Count returns the number of completions signalled so far.
func (in *Indicator) Count(p *sim.Proc, cl *cloud.Client) (int, error) {
	return cl.GetMessageCount(p, in.Queue)
}

// AwaitCount polls until at least target completions have been signalled.
func (in *Indicator) AwaitCount(p *sim.Proc, cl *cloud.Client, target int) error {
	poll := in.Poll
	if poll <= 0 {
		poll = DefaultPollInterval
	}
	for {
		n, err := in.Count(p, cl)
		if err != nil {
			return err
		}
		if n >= target {
			return nil
		}
		p.Sleep(poll)
	}
}

// EnsureQueues creates the framework queues if needed (idempotent).
func EnsureQueues(p *sim.Proc, cl *cloud.Client, queues ...string) error {
	for _, q := range queues {
		if _, err := cl.CreateQueueIfNotExists(p, q); err != nil && !storecommon.IsConflict(err) {
			return err
		}
	}
	return nil
}
