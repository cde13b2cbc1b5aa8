package scenario

import (
	"time"

	"azurebench/internal/cloud"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
)

// The workload driver is written once against two seams. A Runtime is
// where its processes run and what time means; a Store is one client's
// connection to the storage services. The simulated pair below wraps
// *sim.Env and *cloud.Client; the live pair (internal/liverun: goroutines,
// the wall clock, *sdk.Client) lives outside this package because nothing
// here may read the wall clock.

// Runtime is the substrate's clock and process model.
type Runtime interface {
	// Now is the time since the run began.
	Now() time.Duration
	// Go starts fn as a named process.
	Go(name string, fn func(Proc))
	// Wait returns once every started process has finished.
	Wait()
}

// Proc is a running process's handle on its Runtime; every blocking call
// takes one. *sim.Proc satisfies it as is.
type Proc interface {
	Now() time.Duration
	Sleep(d time.Duration)
}

// Store is the op vocabulary of the scenario DSL, one method per storage
// request, plus the create calls setup needs. Each request retries itself
// under the scenario retry discipline (RetryPolicy). Errors carry storecommon
// codes in both modes, so the driver classifies NotFound, Conflict and
// PreconditionFailed outcomes without knowing the substrate.
type Store interface {
	// The create calls succeed when the object already exists.
	CreateTable(p Proc, name string) error
	CreateQueue(p Proc, name string) error
	CreateContainer(p Proc, name string) error

	BlobPut(p Proc, container, name string, data payload.Payload) error
	BlobGet(p Proc, container, name string) error

	QueuePut(p Proc, queue string, body payload.Payload) error
	// QueueGet claims one message for visibility; ok is false when the
	// queue has none visible.
	QueueGet(p Proc, queue string, visibility time.Duration) (id, receipt string, ok bool, err error)
	QueueDelete(p Proc, queue, id, receipt string) error

	TableGet(p Proc, table, pk, rk string) error
	TableInsert(p Proc, table string, e *tablestore.Entity) error
	// TableUpdate and TableDelete are unconditional (If-Match: *).
	TableUpdate(p Proc, table string, e *tablestore.Entity) error
	TableDelete(p Proc, table, pk, rk string) error
	// TableScan reads up to top rows in key order starting at partition
	// fromPK and reports how many it got.
	TableScan(p Proc, table, fromPK string, top int) (rows int, err error)
}

// ScanFilter is the $filter of a TableScan starting at partition fromPK.
func ScanFilter(fromPK string) string { return "PartitionKey ge '" + fromPK + "'" }

type simRuntime struct{ env *sim.Env }

func (r simRuntime) Now() time.Duration { return r.env.Now() }
func (r simRuntime) Wait()              { r.env.Run() }
func (r simRuntime) Go(name string, fn func(Proc)) {
	r.env.Go(name, func(p *sim.Proc) { fn(p) })
}

// simDial returns the simulated substrate's client factory: every workload
// client is its own Small VM (the paper's worker role) with its own NIC.
func simDial(c *cloud.Cloud) func(name string) Store {
	return func(name string) Store {
		cl := c.NewClient(name, model.Small)
		cl.SetRetryPolicy(RetryPolicy())
		return simStore{cl}
	}
}

// simStore drives a *cloud.Client from inside a simulated process.
type simStore struct{ cl *cloud.Client }

func (s simStore) CreateTable(p Proc, name string) error {
	_, err := s.cl.CreateTableIfNotExists(p.(*sim.Proc), name)
	return err
}

func (s simStore) CreateQueue(p Proc, name string) error {
	_, err := s.cl.CreateQueueIfNotExists(p.(*sim.Proc), name)
	return err
}

func (s simStore) CreateContainer(p Proc, name string) error {
	_, err := s.cl.CreateContainerIfNotExists(p.(*sim.Proc), name)
	return err
}

func (s simStore) BlobPut(p Proc, container, name string, data payload.Payload) error {
	return s.cl.UploadBlockBlob(p.(*sim.Proc), container, name, data)
}

func (s simStore) BlobGet(p Proc, container, name string) error {
	_, err := s.cl.Download(p.(*sim.Proc), container, name)
	return err
}

func (s simStore) QueuePut(p Proc, queue string, body payload.Payload) error {
	_, err := s.cl.PutMessage(p.(*sim.Proc), queue, body)
	return err
}

func (s simStore) QueueGet(p Proc, queue string, visibility time.Duration) (id, receipt string, ok bool, err error) {
	msg, ok, err := s.cl.GetMessage(p.(*sim.Proc), queue, visibility)
	return msg.ID, msg.PopReceipt, ok, err
}

func (s simStore) QueueDelete(p Proc, queue, id, receipt string) error {
	return s.cl.DeleteMessage(p.(*sim.Proc), queue, id, receipt)
}

func (s simStore) TableGet(p Proc, table, pk, rk string) error {
	_, err := s.cl.GetEntity(p.(*sim.Proc), table, pk, rk)
	return err
}

func (s simStore) TableInsert(p Proc, table string, e *tablestore.Entity) error {
	_, err := s.cl.InsertEntity(p.(*sim.Proc), table, e)
	return err
}

func (s simStore) TableUpdate(p Proc, table string, e *tablestore.Entity) error {
	_, err := s.cl.UpdateEntity(p.(*sim.Proc), table, e, storecommon.ETagAny)
	return err
}

func (s simStore) TableDelete(p Proc, table, pk, rk string) error {
	return s.cl.DeleteEntity(p.(*sim.Proc), table, pk, rk, storecommon.ETagAny)
}

func (s simStore) TableScan(p Proc, table, fromPK string, top int) (int, error) {
	res, err := s.cl.QueryEntities(p.(*sim.Proc), table, fromPK, ScanFilter(fromPK), top, tablestore.Continuation{})
	return len(res.Entities), err
}
