package cloud

import (
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
	"azurebench/internal/sim"
)

// CreateQueue creates a queue.
func (cl *Client) CreateQueue(p *sim.Proc, name string) error {
	req := cl.newRequest(OpCreateQueue)
	defer cl.cloud.release(req)
	req.Name = name
	return cl.do(p, req)
}

// CreateQueueIfNotExists creates the queue when absent.
func (cl *Client) CreateQueueIfNotExists(p *sim.Proc, name string) (bool, error) {
	req := cl.newRequest(OpCreateQueueIfNotExists)
	defer cl.cloud.release(req)
	req.Name = name
	err := cl.do(p, req)
	return req.OK, err
}

// DeleteQueue removes a queue and its messages.
func (cl *Client) DeleteQueue(p *sim.Proc, name string) error {
	req := cl.newRequest(OpDeleteQueue)
	defer cl.cloud.release(req)
	req.Name = name
	return cl.do(p, req)
}

// PutMessage inserts a message (the paper's PutMessage).
func (cl *Client) PutMessage(p *sim.Proc, name string, body payload.Payload) (queuestore.Message, error) {
	req := cl.newRequest(OpPutMessage)
	defer cl.cloud.release(req)
	req.Name, req.Data = name, body
	err := cl.do(p, req)
	return req.Msg, err
}

// GetMessage dequeues one message, hiding it for the visibility timeout
// (0 = the 30 s default); ok is false when no message is visible.
func (cl *Client) GetMessage(p *sim.Proc, name string, visibility time.Duration) (queuestore.Message, bool, error) {
	req := cl.newRequest(OpGetMessage)
	defer cl.cloud.release(req)
	req.Name, req.TTL = name, visibility
	err := cl.do(p, req)
	return req.Msg, req.OK, err
}

// PeekMessage observes the front visible message without dequeuing it.
func (cl *Client) PeekMessage(p *sim.Proc, name string) (queuestore.Message, bool, error) {
	req := cl.newRequest(OpPeekMessage)
	defer cl.cloud.release(req)
	req.Name = name
	err := cl.do(p, req)
	return req.Msg, req.OK, err
}

// DeleteMessage deletes a dequeued message using its pop receipt.
func (cl *Client) DeleteMessage(p *sim.Proc, name, msgID, popReceipt string) error {
	req := cl.newRequest(OpDeleteMessage)
	defer cl.cloud.release(req)
	req.Name, req.ID, req.PopReceipt = name, msgID, popReceipt
	return cl.do(p, req)
}

// GetMessageCount returns the approximate message count — the primitive
// under the paper's queue-based barrier (Algorithm 2).
func (cl *Client) GetMessageCount(p *sim.Proc, name string) (int, error) {
	req := cl.newRequest(OpGetMessageCount)
	defer cl.cloud.release(req)
	req.Name = name
	err := cl.do(p, req)
	return req.Count, err
}
