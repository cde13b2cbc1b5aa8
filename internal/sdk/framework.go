package sdk

import "time"

// This file is the live-mode mirror of the simulation framework in
// internal/roles: the paper's Section III task pool with fault-tolerant
// claims, built on the SDK's queue client, so real processes against a
// live emulator share work exactly the way simulated worker roles do.

// LiveTask is a claimed work item.
type LiveTask struct {
	ID         string
	Body       []byte
	popReceipt string
}

// LiveTaskPool is the task-assignment queue of Figure 3 over HTTP.
type LiveTaskPool struct {
	Queue      string
	Visibility time.Duration

	q *QueueClient
}

// NewLiveTaskPool builds a pool over queue with the given claim duration.
func (q *QueueClient) NewLiveTaskPool(queue string, visibility time.Duration) *LiveTaskPool {
	return &LiveTaskPool{Queue: queue, Visibility: visibility, q: q}
}

// Submit enqueues a task.
func (tp *LiveTaskPool) Submit(body []byte) error {
	return tp.q.Put(tp.Queue, body, 0)
}

// TryNext claims a task; ok is false when none is visible.
func (tp *LiveTaskPool) TryNext() (LiveTask, bool, error) {
	msgs, err := tp.q.Get(tp.Queue, 1, tp.Visibility)
	if err != nil || len(msgs) == 0 {
		return LiveTask{}, false, err
	}
	m := msgs[0]
	return LiveTask{ID: m.ID, Body: m.Body, popReceipt: m.PopReceipt}, true, nil
}

// Complete deletes a finished task. A stale claim (the visibility timeout
// expired and another worker holds the task) surfaces as a
// precondition-failed error (storecommon.IsPreconditionFailed).
func (tp *LiveTaskPool) Complete(task LiveTask) error {
	return tp.q.DeleteMessage(tp.Queue, task.ID, task.popReceipt)
}
