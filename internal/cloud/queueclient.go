package cloud

import (
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
	"azurebench/internal/sim"
)

// CreateQueue creates a queue.
func (cl *Client) CreateQueue(p *sim.Proc, name string) error {
	req := cl.newRequest(opCreateQueue, reqHeader)
	defer cl.cloud.release(req)
	req.name = name
	return cl.do(p, req)
}

// CreateQueueIfNotExists creates the queue when absent.
func (cl *Client) CreateQueueIfNotExists(p *sim.Proc, name string) (bool, error) {
	req := cl.newRequest(opCreateQueueIfNotExists, reqHeader)
	defer cl.cloud.release(req)
	req.name = name
	err := cl.do(p, req)
	return req.ok, err
}

// DeleteQueue removes a queue and its messages.
func (cl *Client) DeleteQueue(p *sim.Proc, name string) error {
	req := cl.newRequest(opDeleteQueue, reqHeader)
	defer cl.cloud.release(req)
	req.name = name
	return cl.do(p, req)
}

// PutMessage inserts a message (the paper's PutMessage).
func (cl *Client) PutMessage(p *sim.Proc, name string, body payload.Payload) (queuestore.Message, error) {
	req := cl.newRequest(opPutMessage, body.Len()+reqHeader)
	defer cl.cloud.release(req)
	req.name, req.data = name, body
	err := cl.do(p, req)
	return req.msg, err
}

// GetMessage dequeues one message, hiding it for the visibility timeout
// (0 = the 30 s default); ok is false when no message is visible.
func (cl *Client) GetMessage(p *sim.Proc, name string, visibility time.Duration) (queuestore.Message, bool, error) {
	req := cl.newRequest(opGetMessage, reqHeader)
	defer cl.cloud.release(req)
	req.name, req.ttl = name, visibility
	err := cl.do(p, req)
	return req.msg, req.ok, err
}

// PeekMessage observes the front visible message without dequeuing it.
func (cl *Client) PeekMessage(p *sim.Proc, name string) (queuestore.Message, bool, error) {
	req := cl.newRequest(opPeekMessage, reqHeader)
	defer cl.cloud.release(req)
	req.name = name
	err := cl.do(p, req)
	return req.msg, req.ok, err
}

// DeleteMessage deletes a dequeued message using its pop receipt.
func (cl *Client) DeleteMessage(p *sim.Proc, name, msgID, popReceipt string) error {
	req := cl.newRequest(opDeleteMessage, reqHeader)
	defer cl.cloud.release(req)
	req.name, req.id, req.popReceipt = name, msgID, popReceipt
	return cl.do(p, req)
}

// GetMessageCount returns the approximate message count — the primitive
// under the paper's queue-based barrier (Algorithm 2).
func (cl *Client) GetMessageCount(p *sim.Proc, name string) (int, error) {
	req := cl.newRequest(opGetMessageCount, reqHeader)
	defer cl.cloud.release(req)
	req.name = name
	err := cl.do(p, req)
	return req.count, err
}
