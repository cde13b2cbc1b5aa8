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
	"fmt"
	"net/http"
	"sync"
	"time"

	"azurebench/internal/cloud"
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

// Runtime runs each scenario process on a goroutine of its own, on the
// wall clock.
type Runtime struct {
	start time.Time
	wg    sync.WaitGroup
}

// NewRuntime starts the run's clock.
func NewRuntime() *Runtime { return &Runtime{start: time.Now()} }

// Now implements scenario.Runtime.
func (r *Runtime) Now() time.Duration { return time.Since(r.start) }

// Go implements scenario.Runtime; the process name is unused. The goroutine
// is the process's trampoline: it runs a Cont, sleeps what the Cont asked
// for, runs the one it goes on with, and so on until one goes nowhere.
func (r *Runtime) Go(_ string, k scenario.Cont) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		p := &proc{rt: r, k: k}
		for p.k != nil {
			k := p.k
			p.k = nil
			time.Sleep(p.d)
			k.Resume(p)
		}
	}()
}

// Wait implements scenario.Runtime.
func (r *Runtime) Wait() { r.wg.Wait() }

// proc is one goroutine's scenario.Proc: what its Cont goes on with, and
// after how long.
type proc struct {
	rt *Runtime
	d  time.Duration
	k  scenario.Cont
}

func (p *proc) Now() time.Duration { return p.rt.Now() }

func (p *proc) After(d time.Duration, k scenario.Cont) { p.d, p.k = d, k }

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

// Start implements scenario.Store: it makes the request there and then,
// blocking the process's goroutine, and has p go on with k at once.
func (s *Store) Start(p scenario.Proc, op *cloud.Op, k scenario.Cont) {
	op.Err = s.do(op)
	p.After(0, k)
}

// do makes op through the SDK, leaving in op what the driver reads of its
// answer.
func (s *Store) do(op *cloud.Op) error {
	var err error
	switch op.Kind {
	case cloud.OpCreateTableIfNotExists:
		return exists(s.table.Create(op.Name))
	case cloud.OpCreateQueueIfNotExists:
		return exists(s.queue.Create(op.Name))
	case cloud.OpCreateContainerIfNotExists:
		return exists(s.blob.CreateContainer(op.Name))
	case cloud.OpUploadBlockBlob:
		return s.blob.Upload(op.Name, op.Key, op.Data.Materialize())
	case cloud.OpDownload:
		_, err = s.blob.Download(op.Name, op.Key)
	case cloud.OpPutMessage:
		return s.queue.Put(op.Name, op.Data.Materialize(), 0)
	case cloud.OpGetMessage:
		var msgs []sdk.Message
		msgs, err = s.queue.Get(op.Name, 1, op.TTL)
		if op.OK = err == nil && len(msgs) > 0; op.OK {
			op.Msg.ID, op.Msg.PopReceipt = msgs[0].ID, msgs[0].PopReceipt
		}
	case cloud.OpDeleteMessage:
		return s.queue.DeleteMessage(op.Name, op.ID, op.PopReceipt)
	case cloud.OpGetEntity:
		_, err = s.table.Get(op.Name, op.Key, op.ID)
	case cloud.OpInsertEntity:
		_, err = s.table.Insert(op.Name, op.Ent)
	case cloud.OpUpdateEntity:
		_, err = s.table.Replace(op.Name, op.Ent, op.IfMatch)
	case cloud.OpDeleteEntity:
		return s.table.DeleteEntity(op.Name, op.Key, op.ID, op.IfMatch)
	case cloud.OpQueryEntities:
		var page sdk.QueryPage
		page, err = s.table.Query(op.Name, op.Filter, op.Top, op.From)
		for _, e := range page.Entities {
			op.Res.Entities = append(op.Res.Entities, tablestore.ReadOnly(e))
		}
	default:
		err = fmt.Errorf("liverun: op kind %d is not in the scenario vocabulary", op.Kind)
	}
	return err
}

// exists maps the Conflict a create call answers for an existing object
// to success.
func exists(err error) error {
	if storecommon.IsConflict(err) {
		return nil
	}
	return err
}
