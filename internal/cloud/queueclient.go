package cloud

import (
	"time"

	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
	"azurebench/internal/sim"
)

// CreateQueue creates a queue.
func (cl *Client) CreateQueue(p *sim.Proc, name string) error {
	req := cl.newRequest("CreateQueue", "queue", reqHeader, cl.cloud.queueServer(name))
	defer cl.cloud.release(req)
	req.mut = true
	req.geoKey = name
	req.apply = func() (time.Duration, int64, error) {
		return cl.cloud.prm.ContainerOpOcc, 0, cl.cloud.Queue.CreateQueue(name)
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error { return dst.Queue.CreateQueue(name) }
	}
	return cl.do(p, req)
}

// CreateQueueIfNotExists creates the queue when absent.
func (cl *Client) CreateQueueIfNotExists(p *sim.Proc, name string) (bool, error) {
	created := false
	req := cl.newRequest("CreateQueueIfNotExists", "queue", reqHeader, cl.cloud.queueServer(name))
	defer cl.cloud.release(req)
	req.mut = true
	req.geoKey = name
	req.apply = func() (time.Duration, int64, error) {
		var err error
		created, err = cl.cloud.Queue.CreateQueueIfNotExists(name)
		return cl.cloud.prm.ContainerOpOcc, 0, err
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error {
			_, err := dst.Queue.CreateQueueIfNotExists(name)
			return err
		}
	}
	err := cl.do(p, req)
	return created, err
}

// DeleteQueue removes a queue and its messages.
func (cl *Client) DeleteQueue(p *sim.Proc, name string) error {
	req := cl.newRequest("DeleteQueue", "queue", reqHeader, cl.cloud.queueServer(name))
	defer cl.cloud.release(req)
	req.mut = true
	req.geoKey = name
	req.apply = func() (time.Duration, int64, error) {
		return cl.cloud.prm.ContainerOpOcc, 0, cl.cloud.Queue.DeleteQueue(name)
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error { return dst.Queue.DeleteQueue(name) }
	}
	return cl.do(p, req)
}

// PutMessage inserts a message (the paper's PutMessage).
func (cl *Client) PutMessage(p *sim.Proc, name string, body payload.Payload) (queuestore.Message, error) {
	req := cl.newRequest("PutMessage", "queue", body.Len()+reqHeader, cl.cloud.queueServer(name))
	defer cl.cloud.release(req)
	req.mut = true
	req.queue = name
	req.repl = cl.cloud.prm.ReplCost()
	req.lat = cl.cloud.prm.QueueLat(model.QPut, body.Len())
	req.geoKey = name
	req.kind = opPutMessage
	req.body = body
	if cl.cloud.geo != nil {
		// Replaying Puts in log order reproduces the primary's message IDs
		// on the secondary (per-queue counters advance identically), so a
		// later replicated Delete finds its message by ID.
		req.mirror = func(dst *Cloud) error {
			_, err := dst.Queue.Put(name, body, 0)
			return err
		}
	}
	err := cl.do(p, req)
	return req.msg, err
}

// GetMessage dequeues one message, hiding it for the visibility timeout
// (0 = the 30 s default); ok is false when no message is visible.
func (cl *Client) GetMessage(p *sim.Proc, name string, visibility time.Duration) (queuestore.Message, bool, error) {
	req := cl.newRequest("GetMessage", "queue", reqHeader, cl.cloud.queueServer(name))
	defer cl.cloud.release(req)
	req.queue = name
	req.repl = cl.cloud.prm.ReplCost() // dequeue commits a visibility update
	req.kind = opGetMessage
	req.visibility = visibility
	err := cl.do(p, req)
	return req.msg, req.found, err
}

// PeekMessage observes the front visible message without dequeuing it.
func (cl *Client) PeekMessage(p *sim.Proc, name string) (queuestore.Message, bool, error) {
	req := cl.newRequest("PeekMessage", "queue", reqHeader, cl.cloud.queueServer(name))
	defer cl.cloud.release(req)
	req.queue = name
	req.kind = opPeekMessage
	err := cl.do(p, req)
	return req.msg, req.found, err
}

// DeleteMessage deletes a dequeued message using its pop receipt.
func (cl *Client) DeleteMessage(p *sim.Proc, name, msgID, popReceipt string) error {
	req := cl.newRequest("DeleteMessage", "queue", reqHeader, cl.cloud.queueServer(name))
	defer cl.cloud.release(req)
	req.mut = true
	req.queue = name
	req.repl = cl.cloud.prm.ReplCost()
	req.lat = cl.cloud.prm.QueueLat(model.QDelete, 0)
	req.geoKey = name
	req.kind = opDeleteMessage
	req.msgID = msgID
	req.popReceipt = popReceipt
	if cl.cloud.geo != nil {
		// The secondary never saw the Get that issued the pop receipt, so
		// the replay deletes by ID through the receipt-free replica path.
		req.mirror = func(dst *Cloud) error { return dst.Queue.ReplicaDelete(name, msgID) }
	}
	return cl.do(p, req)
}

// GetMessageCount returns the approximate message count — the primitive
// under the paper's queue-based barrier (Algorithm 2).
func (cl *Client) GetMessageCount(p *sim.Proc, name string) (int, error) {
	n := 0
	req := cl.newRequest("GetMessageCount", "queue", reqHeader, cl.cloud.queueServer(name))
	defer cl.cloud.release(req)
	req.queue = name
	req.lat = cl.cloud.prm.QueueLat(model.QPeek, 0)
	req.apply = func() (time.Duration, int64, error) {
		var err error
		n, err = cl.cloud.Queue.ApproximateCount(name)
		return cl.cloud.prm.QueueOcc(model.QPeek, 0, 0), reqHeader, err
	}
	err := cl.do(p, req)
	return n, err
}
