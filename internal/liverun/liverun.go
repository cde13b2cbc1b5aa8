// Package liverun is the live substrate of the scenario workload driver
// (internal/scenario): processes are goroutines, time is the wall clock
// and storage is reached through the SDK over HTTP. It is the only place
// the driver meets real time, which is why it is its own package —
// internal/scenario is simulation-facing and may not read the wall clock.
//
//	azurestore &                                        # terminal 1
//	azurebench -quick -scenario examples/scenarios/ycsb-b.yaml -live http://127.0.0.1:10000
package liverun

import (
	"net/http"
	"sync"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/scenario"
	"azurebench/internal/sdk"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
)

// maxIdleConns lets every concurrent op of a burst keep its connection
// alive between volleys (net/http's default of 2 per host would reopen
// sockets on every train and exhaust ephemeral ports).
const maxIdleConns = 256

// Run executes a workload-driver scenario against the emulator at
// endpoint, seeding the workload's op and key streams from seed.
func Run(endpoint string, sp *scenario.Spec, seed int64, opts scenario.Options) (*scenario.Result, error) {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = maxIdleConns
	tr.MaxIdleConnsPerHost = maxIdleConns
	defer tr.CloseIdleConnections()
	st := NewStore(sdk.New(endpoint, &http.Client{Transport: tr}, scenario.RetryPolicy()))
	return scenario.RunOn(NewRuntime(), func(string) scenario.Store { return st }, sp, seed, opts)
}

// Runtime runs scenario processes as goroutines on the wall clock. It is
// its own Proc: a goroutine needs no handle to sleep.
type Runtime struct {
	start time.Time
	wg    sync.WaitGroup
}

// NewRuntime starts the run's clock.
func NewRuntime() *Runtime { return &Runtime{start: time.Now()} }

// Now implements scenario.Runtime and scenario.Proc.
func (r *Runtime) Now() time.Duration { return time.Since(r.start) }

// Sleep implements scenario.Proc.
func (r *Runtime) Sleep(d time.Duration) { time.Sleep(d) }

// Go implements scenario.Runtime; the process name is unused.
func (r *Runtime) Go(_ string, fn func(scenario.Proc)) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fn(r)
	}()
}

// Wait implements scenario.Runtime.
func (r *Runtime) Wait() { r.wg.Wait() }

// Store speaks the scenario op vocabulary to an emulator through one SDK
// client, which all workload clients share (it is safe for concurrent
// use, and over HTTP a client has no per-VM identity to model).
type Store struct {
	blob  *sdk.BlobClient
	queue *sdk.QueueClient
	table *sdk.TableClient
}

// NewStore wraps an SDK client.
func NewStore(c *sdk.Client) *Store {
	return &Store{blob: c.Blob(), queue: c.Queue(), table: c.Table()}
}

// exists maps the Conflict a create call answers for an existing object
// to success.
func exists(err error) error {
	if storecommon.IsConflict(err) {
		return nil
	}
	return err
}

func (s *Store) CreateTable(_ scenario.Proc, name string) error {
	return exists(s.table.Create(name))
}

func (s *Store) CreateQueue(_ scenario.Proc, name string) error {
	return exists(s.queue.Create(name))
}

func (s *Store) CreateContainer(_ scenario.Proc, name string) error {
	return exists(s.blob.CreateContainer(name))
}

func (s *Store) BlobPut(_ scenario.Proc, container, name string, data payload.Payload) error {
	return s.blob.Upload(container, name, data.Materialize())
}

func (s *Store) BlobGet(_ scenario.Proc, container, name string) error {
	_, err := s.blob.Download(container, name)
	return err
}

func (s *Store) QueuePut(_ scenario.Proc, queue string, body payload.Payload) error {
	return s.queue.Put(queue, body.Materialize(), 0)
}

func (s *Store) QueueGet(_ scenario.Proc, queue string, visibility time.Duration) (id, receipt string, ok bool, err error) {
	msgs, err := s.queue.Get(queue, 1, visibility)
	if err != nil || len(msgs) == 0 {
		return "", "", false, err
	}
	return msgs[0].ID, msgs[0].PopReceipt, true, nil
}

func (s *Store) QueueDelete(_ scenario.Proc, queue, id, receipt string) error {
	return s.queue.DeleteMessage(queue, id, receipt)
}

func (s *Store) TableGet(_ scenario.Proc, table, pk, rk string) error {
	_, err := s.table.Get(table, pk, rk)
	return err
}

func (s *Store) TableInsert(_ scenario.Proc, table string, e *tablestore.Entity) error {
	_, err := s.table.Insert(table, e)
	return err
}

func (s *Store) TableUpdate(_ scenario.Proc, table string, e *tablestore.Entity) error {
	_, err := s.table.Replace(table, e, storecommon.ETagAny)
	return err
}

func (s *Store) TableDelete(_ scenario.Proc, table, pk, rk string) error {
	return s.table.DeleteEntity(table, pk, rk, storecommon.ETagAny)
}

func (s *Store) TableScan(_ scenario.Proc, table, fromPK string, top int) (int, error) {
	page, err := s.table.Query(table, scenario.ScanFilter(fromPK), top, tablestore.Continuation{})
	return len(page.Entities), err
}
