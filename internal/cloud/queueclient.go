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
	req := request{
		op:      "CreateQueue",
		mut:     true,
		service: "queue",
		up:      reqHeader,
		server:  cl.cloud.queueServer(name),
		geoKey:  name,
		apply: func() (time.Duration, int64, error) {
			return cl.cloud.prm.ContainerOpOcc, 0, cl.cloud.Queue.CreateQueue(name)
		},
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error { return dst.Queue.CreateQueue(name) }
	}
	return cl.do(p, &req)
}

// CreateQueueIfNotExists creates the queue when absent.
func (cl *Client) CreateQueueIfNotExists(p *sim.Proc, name string) (bool, error) {
	created := false
	req := request{
		op:      "CreateQueueIfNotExists",
		mut:     true,
		service: "queue",
		up:      reqHeader,
		server:  cl.cloud.queueServer(name),
		geoKey:  name,
		apply: func() (time.Duration, int64, error) {
			var err error
			created, err = cl.cloud.Queue.CreateQueueIfNotExists(name)
			return cl.cloud.prm.ContainerOpOcc, 0, err
		},
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error {
			_, err := dst.Queue.CreateQueueIfNotExists(name)
			return err
		}
	}
	err := cl.do(p, &req)
	return created, err
}

// DeleteQueue removes a queue and its messages.
func (cl *Client) DeleteQueue(p *sim.Proc, name string) error {
	req := request{
		op:      "DeleteQueue",
		mut:     true,
		service: "queue",
		up:      reqHeader,
		server:  cl.cloud.queueServer(name),
		geoKey:  name,
		apply: func() (time.Duration, int64, error) {
			return cl.cloud.prm.ContainerOpOcc, 0, cl.cloud.Queue.DeleteQueue(name)
		},
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error { return dst.Queue.DeleteQueue(name) }
	}
	return cl.do(p, &req)
}

// PutMessage inserts a message (the paper's PutMessage).
func (cl *Client) PutMessage(p *sim.Proc, name string, body payload.Payload) (queuestore.Message, error) {
	req := request{
		op:      "PutMessage",
		mut:     true,
		service: "queue",
		up:      body.Len() + reqHeader,
		server:  cl.cloud.queueServer(name),
		queue:   name,
		repl:    cl.cloud.prm.ReplCost(),
		lat:     cl.cloud.prm.QueueLat(model.QPut, body.Len()),
		geoKey:  name,
		kind:    opPutMessage,
		body:    body,
	}
	if cl.cloud.geo != nil {
		// Replaying Puts in log order reproduces the primary's message IDs
		// on the secondary (per-queue counters advance identically), so a
		// later replicated Delete finds its message by ID.
		req.mirror = func(dst *Cloud) error {
			_, err := dst.Queue.Put(name, body, 0)
			return err
		}
	}
	err := cl.do(p, &req)
	return req.msg, err
}

// GetMessage dequeues one message, hiding it for the visibility timeout
// (0 = the 30 s default); ok is false when no message is visible.
func (cl *Client) GetMessage(p *sim.Proc, name string, visibility time.Duration) (queuestore.Message, bool, error) {
	req := request{
		op:         "GetMessage",
		service:    "queue",
		up:         reqHeader,
		server:     cl.cloud.queueServer(name),
		queue:      name,
		repl:       cl.cloud.prm.ReplCost(), // dequeue commits a visibility update
		kind:       opGetMessage,
		visibility: visibility,
	}
	err := cl.do(p, &req)
	return req.msg, req.found, err
}

// PeekMessage observes the front visible message without dequeuing it.
func (cl *Client) PeekMessage(p *sim.Proc, name string) (queuestore.Message, bool, error) {
	req := request{
		op:      "PeekMessage",
		service: "queue",
		up:      reqHeader,
		server:  cl.cloud.queueServer(name),
		queue:   name,
		kind:    opPeekMessage,
	}
	err := cl.do(p, &req)
	return req.msg, req.found, err
}

// DeleteMessage deletes a dequeued message using its pop receipt.
func (cl *Client) DeleteMessage(p *sim.Proc, name, msgID, popReceipt string) error {
	req := request{
		op:         "DeleteMessage",
		mut:        true,
		service:    "queue",
		up:         reqHeader,
		server:     cl.cloud.queueServer(name),
		queue:      name,
		repl:       cl.cloud.prm.ReplCost(),
		lat:        cl.cloud.prm.QueueLat(model.QDelete, 0),
		geoKey:     name,
		kind:       opDeleteMessage,
		msgID:      msgID,
		popReceipt: popReceipt,
	}
	if cl.cloud.geo != nil {
		// The secondary never saw the Get that issued the pop receipt, so
		// the replay deletes by ID through the receipt-free replica path.
		req.mirror = func(dst *Cloud) error { return dst.Queue.ReplicaDelete(name, msgID) }
	}
	return cl.do(p, &req)
}

// GetMessageCount returns the approximate message count — the primitive
// under the paper's queue-based barrier (Algorithm 2).
func (cl *Client) GetMessageCount(p *sim.Proc, name string) (int, error) {
	n := 0
	err := cl.do(p, &request{
		op:      "GetMessageCount",
		service: "queue",
		up:      reqHeader,
		server:  cl.cloud.queueServer(name),
		queue:   name,
		lat:     cl.cloud.prm.QueueLat(model.QPeek, 0),
		apply: func() (time.Duration, int64, error) {
			var err error
			n, err = cl.cloud.Queue.ApproximateCount(name)
			return cl.cloud.prm.QueueOcc(model.QPeek, 0, 0), reqHeader, err
		},
	})
	return n, err
}
