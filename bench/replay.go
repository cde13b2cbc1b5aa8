package main

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"time"

	"azurebench/internal/blobstore"
	"azurebench/internal/cloud"
	"azurebench/internal/model"
	"azurebench/internal/odata"
	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
	"azurebench/internal/rest"
	"azurebench/internal/scenario"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/vclock"
)

// The layer replays time calls straight into one layer's public functions,
// with the same shapes of data the workloads use (1 KiB entities in 16
// partitions, zipfian keys, 512 B messages, 64 KiB blobs, a queue 10 000
// deep). They run after a traced run's repetitions, single-threaded, and
// say what each layer costs when nothing sits around it; the spans say
// what it costs in place.

// replayed is the outcome of one replay.
type replayed struct {
	ns     float64 // median batch, per call
	allocs float64 // per call, all batches
	bytes  float64 // allocated per call, all batches
}

const replayBatches = 5

// replayShrink divides every replay's call count; tests of the harness
// raise it.
var replayShrink = 1

// replay runs batch(n) replayBatches times after one untimed batch and
// reports the median batch.
func replay(n int, batch func(n int)) replayed {
	if n = n / replayShrink; n < 1 {
		n = 1
	}
	batch(n)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	per := make([]float64, replayBatches)
	for i := range per {
		t0 := time.Now()
		batch(n)
		per[i] = float64(time.Since(t0)) / float64(n)
	}
	runtime.ReadMemStats(&after)
	calls := float64(n * replayBatches)
	return replayed{
		ns:     median(per),
		allocs: float64(after.Mallocs-before.Mallocs) / calls,
		bytes:  float64(after.TotalAlloc-before.TotalAlloc) / calls,
	}
}

// Shapes shared by the replays; they match fullSizes.
const (
	replayRecords    = 10000
	replayPartitions = 16
	replayValue      = 1024
	replayMessage    = 512
	replayBlob       = 64 << 10
	replayDepth      = 10000
	replayBlobNames  = 256
	replayName       = "replay" // table, queue and container of every replay
)

// replayData is the generated table content and key stream.
type replayData struct {
	pk, rk  []string
	ent     []*tablestore.Entity
	keys    []int    // zipfian key stream
	filters []string // range-scan filters, one per stream entry
}

func newReplayData(seed int64) *replayData {
	d := &replayData{}
	values := newRNG(seed, 11)
	for i := 0; i < replayRecords; i++ {
		d.pk = append(d.pk, fmt.Sprintf("p%02d", i%replayPartitions))
		d.rk = append(d.rk, fmt.Sprintf("user%010d", i))
		d.ent = append(d.ent, &tablestore.Entity{
			PartitionKey: d.pk[i], RowKey: d.rk[i],
			Props: map[string]tablestore.Value{"Field0": tablestore.Binary(payload.Bytes(values.bytes(replayValue)))},
		})
	}
	z := newZipf(newRNG(seed, 12), replayRecords, 0.99)
	starts := newRNG(seed, 13)
	for i := 0; i < 4096; i++ {
		d.keys = append(d.keys, z.next())
		s := starts.intn(replayRecords)
		d.filters = append(d.filters, "PartitionKey eq '"+d.pk[s]+"' and RowKey ge '"+d.rk[s]+"'")
	}
	return d
}

func (d *replayData) key(i int) int { return d.keys[i%len(d.keys)] }

// must stops a replay on an error no replay should ever see.
func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: layer replay: %v", err))
	}
}

// runReplays runs every replay and adds its metrics. A panic in one (a
// layer call failed) is reported as an error.
func runReplays(seed int64, m metrics, log func(string, ...any)) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	t0 := time.Now()
	d := newReplayData(seed)
	replaySim(m)
	replayCloud(d, m)
	replayQueueStore(seed, m)
	replayTableStore(d, m)
	replayBlobStore(seed, m)
	replayOData(d, m)
	replayREST(d, seed, m)
	parse := replay(200, func(n int) {
		for i := 0; i < n; i++ {
			_, err := scenario.Parse(closedLoopYAML)
			must(err)
		}
	})
	m.set("scenario.parse_ms", parse.ns/1e6, "ms")
	log("layer replays took %.1f s", time.Since(t0).Seconds())
	return nil
}

func replaySim(m metrics) {
	// One process sleeping: an event scheduled, popped and its process
	// resumed, per call.
	ev := replay(100000, func(n int) {
		env := sim.NewEnv(1)
		env.Go("p", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Sleep(time.Microsecond)
			}
		})
		env.Run()
	})
	m.set("sim.event_ns", ev.ns, "ns")
	m.set("sim.event_allocs", ev.allocs, "count")

	// Two processes handing a token back and forth through two stores:
	// two process switches per round trip.
	sw := replay(50000, func(n int) {
		env := sim.NewEnv(1)
		ping, pong := sim.NewStore[int](env, "ping"), sim.NewStore[int](env, "pong")
		env.Go("a", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				ping.Put(i)
				pong.Get(p)
			}
		})
		env.Go("b", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				pong.Put(ping.Get(p))
			}
		})
		env.Run()
	})
	m.set("sim.switch_ns", sw.ns/2, "ns")

	// Sixteen processes queueing for a capacity-1 resource.
	const procs = 16
	res := replay(48000, func(n int) {
		env := sim.NewEnv(1)
		r := sim.NewResource(env, "server", 1)
		for w := 0; w < procs; w++ {
			env.Go("w", func(p *sim.Proc) {
				for i := 0; i < n/procs; i++ {
					r.Use(p, time.Microsecond)
				}
			})
		}
		env.Run()
	})
	m.set("sim.resource_acquire_ns", res.ns, "ns")
}

// replayCloud drives cloud.Client from one simulated role on a bench-built
// environment: the request pipeline of the simulated cloud with the
// scenario engine taken away.
func replayCloud(d *replayData, m metrics) {
	const table, queue, keys = replayName, replayName, 1000
	env := sim.NewEnv(1)
	cl := cloud.New(env, model.Default()).NewClient("replay", model.Small)
	// run executes fn as one simulated role and drains the environment.
	run := func(fn func(p *sim.Proc)) {
		env.Go("replay", fn)
		env.Run()
	}
	run(func(p *sim.Proc) {
		must(cl.CreateTable(p, table))
		must(cl.CreateQueue(p, queue))
		for i := 0; i < keys; i++ {
			_, err := cl.InsertEntity(p, table, d.ent[i])
			must(err)
		}
	})

	var eventsPerOp float64
	get := replay(20000, func(n int) {
		before := env.Events()
		run(func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				k := d.key(i) % keys
				_, err := cl.GetEntity(p, table, d.pk[k], d.rk[k])
				must(err)
			}
		})
		eventsPerOp = float64(env.Events()-before) / float64(n)
	})
	m.set("cloud.table_get_us", get.ns/1e3, "us")
	m.set("cloud.events_per_op", eventsPerOp, "count")
	m.set("cloud.allocs_per_op", get.allocs, "count")

	m.set("cloud.table_update_us", replay(20000, func(n int) {
		run(func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, err := cl.UpdateEntity(p, table, d.ent[d.key(i)%keys], storecommon.ETagAny)
				must(err)
			}
		})
	}).ns/1e3, "us")

	body := payload.Bytes(newRNG(1, 14).bytes(replayMessage))
	m.set("cloud.queue_cycle_us", replay(6000, func(n int) {
		run(func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				_, err := cl.PutMessage(p, queue, body)
				must(err)
				msg, ok, err := cl.GetMessage(p, queue, time.Minute)
				must(err)
				if !ok {
					panic("bench: layer replay: simulated queue empty after put")
				}
				must(cl.DeleteMessage(p, queue, msg.ID, msg.PopReceipt))
			}
		})
	}).ns/1e3, "us")
}

func replayQueueStore(seed int64, m metrics) {
	body := payload.Bytes(newRNG(seed, 15).bytes(replayMessage))
	build := func(depth int) *queuestore.Store {
		s := queuestore.New(vclock.Real{})
		must(s.CreateQueue(replayName))
		for i := 0; i < depth; i++ {
			_, err := s.Put(replayName, body, 0)
			must(err)
		}
		return s
	}
	cycle := func(s *queuestore.Store) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				_, err := s.Put(replayName, body, 0)
				must(err)
				msg, ok, err := s.GetOne(replayName, time.Minute)
				must(err)
				if !ok {
					panic("bench: layer replay: queue empty after put")
				}
				must(s.Delete(replayName, msg.ID, msg.PopReceipt))
			}
		}
	}
	m.set("queuestore.cycle_us_depth0", replay(20000, cycle(build(0))).ns/1e3, "us")
	deep := build(replayDepth)
	m.set("queuestore.cycle_us_depth10k", replay(300, cycle(deep)).ns/1e3, "us")
	m.set("queuestore.peek_us_depth10k", replay(300, func(n int) {
		for i := 0; i < n; i++ {
			_, _, err := deep.PeekOne(replayName)
			must(err)
		}
	}).ns/1e3, "us")
	m.set("queuestore.count_us_depth10k", replay(300, func(n int) {
		for i := 0; i < n; i++ {
			_, err := deep.ApproximateCount(replayName)
			must(err)
		}
	}).ns/1e3, "us")
}

// loadTable fills a table store with the replay data.
func loadTable(s *tablestore.Store, d *replayData, table string) {
	must(s.CreateTable(table))
	for _, e := range d.ent {
		_, err := s.Insert(table, e)
		must(err)
	}
}

func replayTableStore(d *replayData, m metrics) {
	s := tablestore.New(vclock.Real{})
	loadTable(s, d, replayName)
	m.set("tablestore.get_us", replay(20000, func(n int) {
		for i := 0; i < n; i++ {
			k := d.key(i)
			_, err := s.Get(replayName, d.pk[k], d.rk[k])
			must(err)
		}
	}).ns/1e3, "us")
	m.set("tablestore.replace_us", replay(20000, func(n int) {
		for i := 0; i < n; i++ {
			_, err := s.Replace(replayName, d.ent[d.key(i)], storecommon.ETagAny)
			must(err)
		}
	}).ns/1e3, "us")
	m.set("tablestore.scan10_us", replay(40, func(n int) {
		for i := 0; i < n; i++ {
			_, err := s.Query(replayName, d.filters[i%len(d.filters)], scanTop, tablestore.Continuation{})
			must(err)
		}
	}).ns/1e3, "us")

	// Inserts and batches go to a fresh table per batch so each one sees
	// the same table size.
	fresh := 0
	m.set("tablestore.insert_us", replay(replayRecords, func(n int) {
		fresh++
		name := fmt.Sprintf("ins%d", fresh)
		must(s.CreateTable(name))
		for i := 0; i < n; i++ {
			_, err := s.Insert(name, d.ent[i])
			must(err)
		}
	}).ns/1e3, "us")
	batches := make([][]tablestore.BatchOp, 40)
	for b := range batches {
		for j := 0; j < 100; j++ {
			batches[b] = append(batches[b], tablestore.BatchOp{
				Kind:   tablestore.BatchInsert,
				Entity: &tablestore.Entity{PartitionKey: "p00", RowKey: fmt.Sprintf("b%03d-%03d", b, j), Props: d.ent[j].Props},
			})
		}
	}
	m.set("tablestore.batch100_us", replay(len(batches), func(n int) {
		fresh++
		name := fmt.Sprintf("bat%d", fresh)
		must(s.CreateTable(name))
		for i := 0; i < n; i++ {
			_, err := s.ExecuteBatch(name, batches[i])
			must(err)
		}
	}).ns/1e3, "us")
}

func replayBlobStore(seed int64, m metrics) {
	s := blobstore.New(vclock.Real{})
	must(s.CreateContainer(replayName))
	data := newRNG(seed, 16).bytes(replayBlob)
	names := make([]string, replayBlobNames)
	for i := range names {
		names[i] = fmt.Sprintf("blob-%04d", i)
	}
	// The engine keeps a reference to the body it is handed and hands a
	// view of it back; whatever copying a blob costs happens in the
	// layers above (rest.blob_alloc_bytes_per_user_byte).
	up := replay(2000, func(n int) {
		for i := 0; i < n; i++ {
			_, err := s.UploadBlockBlob(replayName, names[i%len(names)], payload.Bytes(data), "")
			must(err)
		}
	})
	down := replay(2000, func(n int) {
		for i := 0; i < n; i++ {
			p, _, err := s.Download(replayName, names[i%len(names)])
			must(err)
			if p.Len() != replayBlob {
				panic("bench: layer replay: short blob")
			}
		}
	})
	m.set("blobstore.upload64k_us", up.ns/1e3, "us")
	m.set("blobstore.download64k_us", down.ns/1e3, "us")
	m.set("blobstore.alloc_bytes_per_user_byte", (up.bytes+down.bytes)/(2*replayBlob), "B/B")
}

func replayOData(d *replayData, m metrics) {
	encoded := make([][]byte, 256)
	m.set("odata.encode_us", replay(5000, func(n int) {
		for i := 0; i < n; i++ {
			raw, err := odata.EncodeEntity(d.ent[d.key(i)])
			must(err)
			encoded[i%len(encoded)] = raw
		}
	}).ns/1e3, "us")
	m.set("odata.decode_us", replay(5000, func(n int) {
		for i := 0; i < n; i++ {
			_, err := odata.DecodeEntity(encoded[i%len(encoded)])
			must(err)
		}
	}).ns/1e3, "us")
}

// replayREST calls rest.Server.ServeHTTP through httptest, with no socket
// and no net/http server around it: handler routing, decoding, the engine
// call and encoding. Building the request and the recorder is inside the
// timed call; it is the same for every endpoint.
func replayREST(d *replayData, seed int64, m metrics) {
	srv := rest.NewServer(rest.Options{})
	loadTable(srv.Table, d, replayName)
	must(srv.Queue.CreateQueue(replayName))
	must(srv.Blob.CreateContainer(replayName))

	call := func(method, target string, body []byte, header ...string) *httptest.ResponseRecorder {
		var r *http.Request
		if body != nil {
			r = httptest.NewRequest(method, target, bytes.NewReader(body))
		} else {
			r = httptest.NewRequest(method, target, nil)
		}
		for i := 0; i+1 < len(header); i += 2 {
			r.Header.Set(header[i], header[i+1])
		}
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, r)
		if w.Code >= 400 {
			panic(fmt.Sprintf("bench: layer replay: %s %s: status %d: %s", method, target, w.Code, w.Body.String()))
		}
		return w
	}

	paths := make([]string, replayRecords)
	bodies := make([][]byte, replayRecords)
	for i := range paths {
		paths[i] = "/table/" + replayName + "(PartitionKey='" + d.pk[i] + "',RowKey='" + d.rk[i] + "')"
	}
	scans := make([]string, len(d.filters))
	for i, f := range d.filters {
		scans[i] = "/table/" + replayName + "?" + url.Values{"$filter": {f}, "$top": {fmt.Sprint(scanTop)}}.Encode()
	}
	for _, k := range d.keys {
		if bodies[k] == nil {
			raw, err := odata.EncodeEntity(d.ent[k])
			must(err)
			bodies[k] = raw
		}
	}

	point := replay(10000, func(n int) {
		for i := 0; i < n; i++ {
			call(http.MethodGet, paths[d.key(i)], nil)
		}
	})
	m.set("rest.get_us", point.ns/1e3, "us")
	m.set("rest.allocs_per_req", point.allocs, "count")
	m.set("rest.replace_us", replay(10000, func(n int) {
		for i := 0; i < n; i++ {
			k := d.key(i)
			call(http.MethodPut, paths[k], bodies[k], "If-Match", "*")
		}
	}).ns/1e3, "us")
	m.set("rest.scan10_us", replay(40, func(n int) {
		for i := 0; i < n; i++ {
			call(http.MethodGet, scans[i%len(scans)], nil)
		}
	}).ns/1e3, "us")

	msg := []byte("<QueueMessage><MessageText>" + base64.StdEncoding.EncodeToString(newRNG(seed, 17).bytes(replayMessage)) + "</MessageText></QueueMessage>")
	between := func(s, open, close string) string {
		i := strings.Index(s, open)
		j := strings.Index(s, close)
		if i < 0 || j < i {
			panic("bench: layer replay: no " + open + " in queue response")
		}
		return s[i+len(open) : j]
	}
	m.set("rest.queue_cycle_us", replay(3000, func(n int) {
		for i := 0; i < n; i++ {
			call(http.MethodPost, "/queue/"+replayName+"/messages", msg)
			got := call(http.MethodGet, "/queue/"+replayName+"/messages?numofmessages=1&visibilitytimeout=60", nil).Body.String()
			id := between(got, "<MessageId>", "</MessageId>")
			receipt := between(got, "<PopReceipt>", "</PopReceipt>")
			call(http.MethodDelete, "/queue/"+replayName+"/messages/"+id+"?popreceipt="+url.QueryEscape(receipt), nil)
		}
	}).ns/1e3, "us")

	blob := newRNG(seed, 18).bytes(replayBlob)
	names := make([]string, replayBlobNames)
	for i := range names {
		names[i] = fmt.Sprintf("/blob/%s/blob-%04d", replayName, i)
	}
	put := replay(1000, func(n int) {
		for i := 0; i < n; i++ {
			call(http.MethodPut, names[i%len(names)], blob, "x-ms-blob-type", "BlockBlob")
		}
	})
	get := replay(1000, func(n int) {
		for i := 0; i < n; i++ {
			if w := call(http.MethodGet, names[i%len(names)], nil); w.Body.Len() != replayBlob {
				panic("bench: layer replay: short blob over REST")
			}
		}
	})
	m.set("rest.blob_put64k_us", put.ns/1e3, "us")
	m.set("rest.blob_get64k_us", get.ns/1e3, "us")
	// The recorder's own copy of the response body is in here: one byte
	// per byte downloaded.
	m.set("rest.blob_alloc_bytes_per_user_byte", (put.bytes+get.bytes)/(2*replayBlob), "B/B")
}
