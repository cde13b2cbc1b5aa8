// Package cloud assembles the simulated Azure datacenter: the three
// storage engines fronted by partition servers (FIFO queueing stations in
// the DES), 3-way replicated writes, the documented scalability-target
// throttles, per-VM NIC links, and a client API mirroring the 2011-era
// Azure SDK calls the paper's benchmark makes.
//
// Placement follows the service's documented partitioning: each blob
// (container name + blob name) is its own partition with Replicas replica
// servers (reads fan out, writes pay replication); each queue is a single
// partition on one server; a table's partitions are spread round-robin
// over TableServers stations — which is what makes table timings "almost
// constant till 4 concurrent clients" (paper §IV-C) and queues scale
// super-linearly when each worker brings its own queue.
package cloud

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"azurebench/internal/blobstore"
	"azurebench/internal/cachestore"
	"azurebench/internal/faults"
	"azurebench/internal/georepl"
	"azurebench/internal/model"
	"azurebench/internal/partitionmgr"
	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/telemetry"
	"azurebench/internal/trace"
	"azurebench/internal/vclock"
)

// Cloud is one simulated storage account inside one simulated datacenter.
// It must only be used from processes of the environment it was built
// with; the simulation's cooperative scheduling makes internal locking
// unnecessary.
type Cloud struct {
	env *sim.Env
	prm model.Params
	// region names the datacenter this account instance lives in; "" for
	// the default single-region deployment. A non-empty region prefixes
	// every station name, so the two halves of a geo-replicated account
	// stay distinguishable in telemetry and fault plans.
	region string
	clock  vclock.Sim

	// The engines are exported for white-box assertions in tests and for
	// zero-cost setup in experiment harnesses.
	Blob  *blobstore.Store
	Queue *queuestore.Store
	Table *tablestore.Store

	accountTx *storecommon.RateLimiter
	accountBW *storecommon.RateLimiter

	blobSrv   map[string]*replicaSet // "container/blob" -> its replicas
	keyBuf    []byte                 // blobReplicas' scratch key
	queueSrv  map[string]*queueSite
	queueTB   *storecommon.LimiterPool
	tableSrv  []*sim.Resource
	tableTB   *storecommon.LimiterPool
	partSites map[string]map[string]*partSite // table -> pk -> its site
	pmgr      *partitionmgr.Master

	cache    *cachestore.Cluster
	cacheSrv []*sim.Resource

	traceLog *trace.Log
	// ids mints trace/span identifiers for recorded ops. It exists only
	// while tracing is attached and is the log's stream for the region name
	// (trace.Log.IDs), so ID assignment is a pure function of the seed +
	// attach order and never draws from the simulation PRNG streams.
	ids    *trace.IDGen
	faults *faults.Injector

	// geo, when attached, receives every committed mutation for async
	// replay against geoDst (the paired secondary-region cloud). Nil —
	// the default — means single-region: the pipeline consults nothing.
	geo    *georepl.Stream
	geoDst *Cloud

	stats Stats
	free  []*request // requests given back by their call sites
}

// SetFaults attaches a fault injector; every subsequent request consults
// it before touching the wire. Pass nil to disable fault injection (the
// default). An injector with an empty plan is equivalent to nil: it never
// injects and never perturbs the happy path.
func (c *Cloud) SetFaults(in *faults.Injector) { c.faults = in }

// Faults returns the attached fault injector (nil when injection is off).
func (c *Cloud) Faults() *faults.Injector { return c.faults }

// SetTrace attaches an operation log; every subsequent client operation is
// recorded with its virtual start time, duration, payload bytes and error
// code — and, so retry chains and replication fan-out reconstruct as
// causal trees, with deterministic trace/span identifiers. Pass nil to
// detach.
func (c *Cloud) SetTrace(l *trace.Log) {
	c.traceLog = l
	if l != nil && c.ids == nil {
		c.ids = l.IDs("cloud/" + c.region)
	}
}

// SetGeoStream attaches a geo-replication stream: every mutation this
// cloud commits from now on is appended to s for asynchronous replay
// against dst. Pass nil, nil to detach (the default); with no stream
// attached the request pipeline is byte-identical to a single-region
// cloud.
func (c *Cloud) SetGeoStream(s *georepl.Stream, dst *Cloud) {
	c.geo = s
	c.geoDst = dst
}

// Stats counts cloud-level events.
type Stats struct {
	Ops          uint64 // operations that reached a partition server
	BusyRejects  uint64 // ServerBusy throttle rejections
	BytesIn      int64  // client -> cloud payload bytes
	BytesOut     int64  // cloud -> client payload bytes
	ReplicaReads [8]uint64

	// Fault-injection and resilience counters (all zero with faults off).
	FaultTimeouts  uint64 // requests lost in the network (OperationTimedOut)
	FaultInternals uint64 // partition-server InternalError 500s
	FaultResets    uint64 // connections cut mid-transfer
	FaultOutages   uint64 // requests rejected by an unavailability window
	Retries        uint64 // attempts reissued under a client's retry policy
}

type replicaSet struct {
	replicas []*sim.Resource
	rr       int
}

// queueSite is what a queue's name resolves to: its partition server and
// its limiter in queueTB.
type queueSite struct {
	srv *sim.Resource
	lim storecommon.LimiterHandle
}

// partSite is what a table partition's (table, pk) resolves to: its
// static placement (-1 under dynamic placement, which routes through the
// client's partition map) and its limiter in tableTB, whose key is
// "table|pk".
type partSite struct {
	idx int
	lim storecommon.LimiterHandle
}

// New builds a cloud on env with parameters prm, in the default
// (unnamed) region.
func New(env *sim.Env, prm model.Params) *Cloud {
	return NewInRegion(env, prm, "")
}

// NewInRegion builds a cloud in a named datacenter region. The region
// prefixes every station name ("west/queue:jobs") and scopes fault
// windows; an empty region reproduces New exactly, station names
// included.
func NewInRegion(env *sim.Env, prm model.Params, region string) *Cloud {
	clock := vclock.NewSim(env)
	// The master's tie-break randomness comes from the environment's
	// seeded stream — and only when the control loop is on, so a static
	// cloud consumes exactly the randomness it did before partitionmgr
	// existed.
	var pmRand *sim.Rand
	if prm.PartitionDynamic {
		pmRand = env.Rand()
	}
	return &Cloud{
		env:    env,
		prm:    prm,
		region: region,
		clock:  clock,
		Blob:   blobstore.New(clock),
		// FIFO is not guaranteed by the real queue service (paper §IV-B);
		// a small selection window reproduces the occasional reordering
		// that motivates the paper's dedicated termination-indicator queue.
		Queue:     queuestore.NewWithConfig(clock, queuestore.Config{NonFIFOWindow: 4, Seed: 7}),
		Table:     tablestore.New(clock),
		accountTx: storecommon.NewRateLimiter(prm.AccountOpsPerSec, prm.AccountBurst),
		accountBW: storecommon.NewRateLimiter(prm.AccountBandwidthBps, prm.AccountBandwidthBurst),
		blobSrv:   map[string]*replicaSet{},
		queueSrv:  map[string]*queueSite{},
		partSites: map[string]map[string]*partSite{},
		pmgr: partitionmgr.New(partitionmgr.Config{
			Dynamic:           prm.PartitionDynamic,
			Servers:           prm.TableServers,
			MaxServers:        prm.MaxTableServers,
			SplitOpsPerSec:    prm.PartitionSplitOpsPerSec,
			MergeOpsPerSec:    prm.PartitionMergeOpsPerSec,
			ControlInterval:   prm.PartitionControlInterval,
			MigrationBlackout: prm.PartitionMigrationBlackout,
		}, pmRand),
	}
}

// PartitionMgr returns the table service's partition master. Its stats
// and event timeline are how experiments report split/merge/migration
// activity.
func (c *Cloud) PartitionMgr() *partitionmgr.Master { return c.pmgr }

// station qualifies a station name with the region; a single-region
// cloud's names are untouched, keeping historical telemetry stable.
func (c *Cloud) station(name string) string {
	if c.region == "" {
		return name
	}
	return c.region + "/" + name
}

// Env returns the simulation environment.
func (c *Cloud) Env() *sim.Env { return c.env }

// Stats returns a snapshot of cloud counters.
func (c *Cloud) Stats() Stats { return c.stats }

// --- placement ---

// blobReplicas returns the replica set of blob partition container/blob.
// The key is spelled in a scratch buffer, so finding a known partition
// allocates nothing; a new one's key is copied out once.
func (c *Cloud) blobReplicas(container, blob string) *replicaSet {
	c.keyBuf = append(append(append(c.keyBuf[:0], container...), '/'), blob...)
	if rs, ok := c.blobSrv[string(c.keyBuf)]; ok {
		return rs
	}
	key := string(c.keyBuf)
	replicas := make([]*sim.Resource, c.prm.Replicas)
	for i := range replicas {
		replicas[i] = sim.NewResource(c.env, c.station(fmt.Sprintf("blob:%s/r%d", key, i)), c.prm.ServerConcurrency)
	}
	rs := &replicaSet{replicas: replicas}
	c.blobSrv[key] = rs
	return rs
}

// primary returns the write server of a blob partition.
func (rs *replicaSet) primary() *sim.Resource { return rs.replicas[0] }

// read returns the next replica for a read (round-robin load balancing).
func (c *Cloud) readReplica(rs *replicaSet) *sim.Resource {
	n := len(rs.replicas)
	if c.prm.BlobReadReplicas < n {
		n = c.prm.BlobReadReplicas
	}
	if n < 1 {
		n = 1
	}
	r := rs.replicas[rs.rr%n]
	if rs.rr%n < len(c.stats.ReplicaReads) {
		c.stats.ReplicaReads[rs.rr%n]++
	}
	rs.rr++
	return r
}

// queueSite returns the site of queue name, creating it on first sight.
func (c *Cloud) queueSite(name string) *queueSite {
	site, ok := c.queueSrv[name]
	if !ok {
		site = &queueSite{
			srv: sim.NewResource(c.env, c.station("queue:"+name), c.prm.ServerConcurrency),
			lim: storecommon.NewLimiterHandle(name),
		}
		c.queueSrv[name] = site
	}
	return site
}

// limiter returns the limiter that a queue op's or a table entity op's
// route found, creating its pool on first use.
func (c *Cloud) limiter(req *request) *storecommon.RateLimiter {
	pool, rate, burst := &c.queueTB, c.prm.QueueOpsPerSec, c.prm.QueueBurst
	if req.Kind.is(partLimit) {
		pool, rate, burst = &c.tableTB, c.prm.PartitionOpsPerSec, c.prm.PartitionBurst
	}
	if *pool == nil {
		*pool = storecommon.NewLimiterPool(rate, burst)
	}
	return (*pool).At(c.env.Now(), req.lim)
}

// ensureTableServers grows the station array to cover both the
// configured initial count and every server the partition master has
// provisioned — new stations appear in telemetry as partitions split.
func (c *Cloud) ensureTableServers() {
	want := c.prm.TableServers
	if n := c.pmgr.Servers(); n > want {
		want = n
	}
	for len(c.tableSrv) < want {
		name := fmt.Sprintf("table-srv-%d", len(c.tableSrv))
		c.tableSrv = append(c.tableSrv, sim.NewResource(c.env, c.station(name), c.prm.ServerConcurrency))
	}
}

// partSite returns the site of partition (table, pk), creating it on first
// sight. Under static placement the partition master then pins the
// partition to one of the TableServers stations, round-robin so distinct
// partitions spread evenly (no hash collisions at small worker counts).
func (c *Cloud) partSite(table, pk string) *partSite {
	byPK := c.partSites[table]
	site, ok := byPK[pk]
	if !ok {
		if byPK == nil {
			byPK = map[string]*partSite{}
			c.partSites[table] = byPK
		}
		site = &partSite{idx: -1, lim: storecommon.NewLimiterHandle(table + "|" + pk)}
		if !c.pmgr.Dynamic() {
			site.idx = c.pmgr.Place(table, pk)
		}
		byPK[pk] = site
	}
	return site
}

// tableServerAt returns the station for server index idx, creating
// stations as needed.
func (c *Cloud) tableServerAt(idx int) *sim.Resource {
	c.ensureTableServers()
	return c.tableSrv[idx]
}

// notePartitionEvents reacts to control-loop decisions the partition
// master made while observing a request: it materialises any newly
// provisioned table servers and records each split/merge/migration as a
// zero-client trace op so reconfigurations appear on the same timeline as
// the traffic that triggered them.
func (c *Cloud) notePartitionEvents(evs []partitionmgr.Event) {
	if len(evs) == 0 {
		return
	}
	c.ensureTableServers()
	if c.traceLog == nil {
		return
	}
	for _, ev := range evs {
		op := trace.Op{
			Start:    ev.At,
			Duration: ev.Blackout,
			Client:   "partition-master",
			Service:  "table",
			Name:     "Partition" + ev.Kind.String(),
			Tag:      ev.Describe(),
		}
		if c.ids != nil {
			op.TraceID, op.SpanID = c.ids.TraceID(), c.ids.SpanID()
		}
		c.traceLog.Record(op)
	}
}

// Stations enumerates the cloud's partition-server stations — queue
// servers (with their per-queue limiters), table servers, blob replicas
// and cache nodes — sorted by name, for telemetry sampling. Partitions are
// created lazily, so callers re-enumerate per observation.
func (c *Cloud) Stations() []telemetry.Station {
	var out []telemetry.Station
	for name, site := range c.queueSrv {
		out = append(out, telemetry.Station{Name: site.srv.Name(), Res: site.srv, Limiter: c.queueTB.Peek(name)})
	}
	for _, srv := range c.tableSrv {
		out = append(out, telemetry.Station{Name: srv.Name(), Res: srv})
	}
	for _, rs := range c.blobSrv {
		for _, r := range rs.replicas {
			out = append(out, telemetry.Station{Name: r.Name(), Res: r})
		}
	}
	for _, srv := range c.cacheSrv {
		out = append(out, telemetry.Station{Name: srv.Name(), Res: srv})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// --- request pipeline ---

// request is one storage operation: its cost structure, the program that
// carries it from first send to final answer, retries included, and its
// results. The op kind says what the operation is (ops) and what it does
// at its engine (Cloud.apply); its arguments and answer are the Op it
// points to, its own or, when it was started (Client.Start), the caller's.
// A request comes off its Cloud's free list (Client.newRequest) and goes
// back when it is answered: issuing an operation allocates nothing.
type request struct {
	*Op
	own Op // the Op of a request a blocking method makes
	attempts
	// The current attempt: clearAttempt clears its references one by one,
	// so as not to bulk-zero memory that holds pointers.
	cl     *Client                    // the client making the current attempt
	server *sim.Resource              // where route sent the current attempt
	lim    *storecommon.LimiterHandle // a queue or table op's limiter, as route found it
	stage  string                     // the trace stage of the program's last stretch
	// The current attempt's trace record. A retried attempt keeps its
	// predecessor's trace ID and is parented under its span.
	fault    string
	st       *spanCutter
	traceID  string // causal identity of this attempt (tracing attached only)
	spanID   string
	parentID string
	attempt
}

// attempt is the rest of the current attempt's state; it holds no pointer.
type attempt struct {
	up int64 // request payload bytes of the current attempt
	// serverIdx is the table-server index the client routed to (from its
	// cached partition map); -1 under static placement, where the route
	// cannot go stale. The front door validates it against the master.
	serverIdx int
	lat       time.Duration // pipeline latency; apply sets it

	// Where the request's program stands, and what it has found so far.
	phase phase
	dec   faults.Decision
	occ   time.Duration
	down  int64         // response bytes the engine produced; a reset's part of them
	sent  time.Duration // when the attempt's backoff began (tracing attached only)
}

// clearAttempt clears the current attempt but for cl and server, which
// every attempt sets.
func (req *request) clearAttempt() {
	if req.st != nil { // traced
		req.st, req.traceID, req.spanID, req.parentID = nil, "", "", ""
	}
	req.stage, req.fault, req.attempt = "", "", attempt{}
}

// attempts is what a request's attempts share: the client that issued it,
// whose policy it retries under, when, what it sends, how often it has been
// retried, and, when it was started from a Call step, what goes on once it
// is answered.
type attempts struct {
	by      *Client
	follow  bool  // by's GeoClient sent it to the active region: so does each retry
	full    int64 // request payload as issued; a write reset sends less of it
	start   time.Duration
	retries int
	backoff time.Duration // slept before the current attempt
	then    sim.Cont
}

// Op is an operation of Client as data: its kind, the arguments of the
// method of the same name (Cloud.apply hands them to the engine, and a geo
// record keeps them), and, once it is answered, what that method returns.
// Start issues one.
type Op struct {
	Kind       OpKind
	Name       string               // the container, queue, table or cache addressed; the geo log's partition
	Key        string               // blob name, partition key or cache key
	ID         string               // block ID, row key or message ID
	IfMatch    string               // UpdateEntity's and DeleteEntity's ETag condition
	PopReceipt string               // DeleteMessage
	Data       payload.Payload      // the bytes written; a blob read's result
	Refs       []blobstore.BlockRef // PutBlockList
	Ent        *tablestore.Entity   // InsertEntity's, UpdateEntity's row
	Off, N     int64                // a byte range; GetBlock's index (Off), CreatePageBlob's size (N)
	TTL        time.Duration        // GetMessage's visibility timeout, CachePut's time to live
	Filter     string               // QueryEntities
	Top        int
	From       tablestore.Continuation
	Answer
}

// Answer is what an operation returns beside Op.Data.
type Answer struct {
	Err     error
	Row     tablestore.Row         // the row GetEntity found / Insert-, UpdateEntity stored
	Msg     queuestore.Message     // the message put, dequeued or peeked
	OK      bool                   // a message or cache item found; a container, queue or table created
	Count   int                    // GetMessageCount
	Version uint64                 // CachePut
	Props   blobstore.Props        // BlobProps
	Res     tablestore.QueryResult // QueryEntities
	Item    cachestore.Item        // CacheGet
	filled  OpKind                 // the op whose engine call last filled the answer (apply)
}

// clear zeroes the one part the engine call that filled a returns, and the
// error and scalars any answer may set.
func (a *Answer) clear() {
	switch a.filled {
	case OpInsertEntity, OpGetEntity, OpUpdateEntity:
		a.Row = tablestore.Row{}
	case OpPutMessage, OpGetMessage, OpPeekMessage:
		a.Msg = queuestore.Message{}
	case OpBlobProps:
		a.Props = blobstore.Props{}
	case OpQueryEntities:
		a.Res = tablestore.QueryResult{}
	case OpCacheGet:
		a.Item = cachestore.Item{}
	}
	a.Err, a.OK, a.Count, a.Version, a.filled = nil, false, 0, 0, 0
}

// size is the request payload the operation sends: the header, and the
// body its arguments make.
func (op *Op) size() int64 {
	n := reqHeader + op.Data.Len() + int64(len(op.Refs))*72 + int64(len(op.Filter))
	if op.Ent != nil {
		n += op.Ent.Size()
	}
	return n
}

// phase names the Call step a request's program has reached.
type phase uint8

const (
	phaseSend   phase = iota // an attempt leaves the client, a retry once its backoff is slept
	phaseAdmit               // at the front door
	phaseServe               // holding its partition server
	phaseFailed              // the server has burnt an internal error's occupancy
	phaseReply               // the response has reached the client
	phaseDone                // the attempt's answer is in
	phaseReset               // the attempt's connection is cut, its partial payload across
)

// newRequest hands out a request for an operation of kind from the cloud's
// free list; the caller fills in the arguments and defers c.release.
func (cl *Client) newRequest(kind OpKind) *request {
	c := cl.cloud
	var req *request
	if n := len(c.free); n > 0 {
		req, c.free = c.free[n-1], c.free[:n-1]
	} else {
		req = new(request)
	}
	req.cl, req.by, req.Op = cl, cl, &req.own
	req.Kind = kind
	return req
}

// release clears req for newRequest and puts it back on the free list.
// Its own Op is cleared only when a blocking method used it.
func (c *Cloud) release(req *request) {
	if req.Op == &req.own {
		req.own = Op{}
	}
	req.then, req.retries, req.backoff = nil, 0, 0
	req.clearAttempt()
	c.free = append(c.free, req)
}

// OpKind names a Client operation.
type OpKind uint8

const (
	OpCreateContainer OpKind = iota
	OpCreateContainerIfNotExists
	OpPutBlock
	OpPutBlockList
	OpUploadBlockBlob
	OpGetBlock
	OpCreatePageBlob
	OpPutPage
	OpGetPage
	OpDownload
	OpDownloadRange
	OpDeleteBlob
	OpBlobProps
	OpCreateQueue
	OpCreateQueueIfNotExists
	OpDeleteQueue
	OpPutMessage
	OpGetMessage
	OpPeekMessage
	OpDeleteMessage
	OpGetMessageCount
	OpCreateTable
	OpCreateTableIfNotExists
	OpInsertEntity
	OpGetEntity
	OpUpdateEntity
	OpDeleteEntity
	OpQueryEntities
	OpCachePut
	OpCacheGet
	// opReplicaDeleteMessage is DeleteMessage as the geo secondary replays
	// it (Cloud.replicate); no client issues it.
	opReplicaDeleteMessage
)

// opFlags are what an operation is, whatever its arguments.
type opFlags uint8

const (
	mutates    opFlags = 1 << iota // injected faults must fire before the engine commits
	syncRepl                       // its occupancy includes a synchronously replicated write, traced apart
	geoRepl                        // the geo secondary replays it
	queueLimit                     // the queue's limiter admits it too
	partLimit                      // the table partition's limiter admits it too, once the partition map has checked its route
)

// ops holds each client operation's trace name, service and flags.
var ops = [...]struct {
	name, service string
	flags         opFlags
}{
	OpCreateContainer:            {"CreateContainer", "blob", mutates | geoRepl},
	OpCreateContainerIfNotExists: {"CreateContainerIfNotExists", "blob", mutates | geoRepl},
	OpPutBlock:                   {"PutBlock", "blob", mutates | syncRepl | geoRepl},
	OpPutBlockList:               {"PutBlockList", "blob", mutates | syncRepl | geoRepl},
	OpUploadBlockBlob:            {"UploadBlockBlob", "blob", mutates | syncRepl | geoRepl},
	OpGetBlock:                   {"GetBlock", "blob", 0},
	OpCreatePageBlob:             {"CreatePageBlob", "blob", mutates | geoRepl},
	OpPutPage:                    {"PutPage", "blob", mutates | syncRepl | geoRepl},
	OpGetPage:                    {"GetPage", "blob", 0},
	OpDownload:                   {"Download", "blob", 0},
	OpDownloadRange:              {"DownloadRange", "blob", 0},
	OpDeleteBlob:                 {"DeleteBlob", "blob", mutates | syncRepl | geoRepl},
	OpBlobProps:                  {"BlobProps", "blob", 0},
	OpCreateQueue:                {"CreateQueue", "queue", mutates | geoRepl},
	OpCreateQueueIfNotExists:     {"CreateQueueIfNotExists", "queue", mutates | geoRepl},
	OpDeleteQueue:                {"DeleteQueue", "queue", mutates | geoRepl},
	OpPutMessage:                 {"PutMessage", "queue", mutates | syncRepl | geoRepl | queueLimit},
	OpGetMessage:                 {"GetMessage", "queue", syncRepl | queueLimit}, // a dequeue commits a visibility update
	OpPeekMessage:                {"PeekMessage", "queue", queueLimit},
	OpDeleteMessage:              {"DeleteMessage", "queue", mutates | syncRepl | geoRepl | queueLimit},
	OpGetMessageCount:            {"GetMessageCount", "queue", queueLimit},
	OpCreateTable:                {"CreateTable", "table", mutates | geoRepl},
	OpCreateTableIfNotExists:     {"CreateTableIfNotExists", "table", mutates | geoRepl},
	OpInsertEntity:               {"InsertEntity", "table", mutates | syncRepl | geoRepl | partLimit},
	OpGetEntity:                  {"GetEntity", "table", partLimit},
	OpUpdateEntity:               {"UpdateEntity", "table", mutates | syncRepl | geoRepl | partLimit},
	OpDeleteEntity:               {"DeleteEntity", "table", mutates | syncRepl | geoRepl | partLimit},
	OpQueryEntities:              {"QueryEntities", "table", partLimit},
	OpCachePut:                   {"CachePut", "cache", mutates},
	OpCacheGet:                   {"CacheGet", "cache", 0},
}

// is reports whether the operation has flag f.
func (k OpKind) is(f opFlags) bool { return ops[k].flags&f != 0 }

// apply runs an operation at its engine: it returns the partition server's
// occupancy (which may depend on what the engine finds, e.g. the size of a
// dequeued message), the response payload size and the engine's error,
// leaves the results in req and sets the pipeline latency. The front door
// calls it on the primary while the request holds its server; a geo record
// calls it on the secondary with a copy of the arguments (replicate). So it
// touches c's engines and c.prm, and nothing else of c.
func (c *Cloud) apply(req *request) (occ time.Duration, down int64, err error) {
	prm := &c.prm
	req.filled = req.Kind
	switch req.Kind {
	case OpCreateContainer:
		return prm.ContainerOpOcc, 0, c.Blob.CreateContainer(req.Name)
	case OpCreateContainerIfNotExists:
		req.OK, err = c.Blob.CreateContainerIfNotExists(req.Name)
		return prm.ContainerOpOcc, 0, err
	case OpPutBlock:
		return prm.BlockPutOcc(req.Data.Len()), 0, c.Blob.PutBlock(req.Name, req.Key, req.ID, req.Data)
	case OpPutBlockList:
		_, err = c.Blob.PutBlockList(req.Name, req.Key, req.Refs, "")
		return prm.CommitOcc(len(req.Refs)), 0, err
	case OpUploadBlockBlob:
		_, err = c.Blob.UploadBlockBlob(req.Name, req.Key, req.Data, "")
		return prm.BlockPutOcc(req.Data.Len()), 0, err
	case OpGetBlock:
		blk, err := c.Blob.GetBlock(req.Name, req.Key, int(req.Off))
		if err != nil {
			return prm.BlockReadOverhead, 0, err
		}
		req.Data = blk
		return prm.BlockGetOcc(blk.Len()), blk.Len(), nil
	case OpCreatePageBlob:
		_, err = c.Blob.CreatePageBlob(req.Name, req.Key, req.N)
		return prm.ContainerOpOcc, 0, err
	case OpPutPage:
		return prm.PagePutOcc(req.Data.Len()), 0, c.Blob.PutPages(req.Name, req.Key, req.Off, req.Data, "")
	case OpGetPage:
		pg, err := c.Blob.GetPage(req.Name, req.Key, req.Off, req.N)
		if err != nil {
			return prm.PageReadOverhead, 0, err
		}
		req.Data = pg
		return prm.PageGetOcc(pg.Len()), pg.Len(), nil
	case OpDownload:
		data, props, err := c.Blob.Download(req.Name, req.Key)
		if err != nil {
			return prm.BlockDownloadSetup, 0, err
		}
		req.Data = data
		return prm.DownloadOcc(props.Type == blobstore.PageBlob, data.Len()), data.Len(), nil
	case OpDownloadRange:
		data, err := c.Blob.DownloadRange(req.Name, req.Key, req.Off, req.N)
		if err != nil {
			return prm.BlockReadOverhead, 0, err
		}
		req.Data = data
		return prm.BlockGetOcc(data.Len()), data.Len(), nil
	case OpDeleteBlob:
		return prm.DeleteBlobOcc(), 0, c.Blob.DeleteBlob(req.Name, req.Key, "")
	case OpBlobProps:
		req.Props, err = c.Blob.GetProps(req.Name, req.Key)
		return prm.ContainerOpOcc, reqHeader, err

	case OpCreateQueue:
		return prm.ContainerOpOcc, 0, c.Queue.CreateQueue(req.Name)
	case OpCreateQueueIfNotExists:
		req.OK, err = c.Queue.CreateQueueIfNotExists(req.Name)
		return prm.ContainerOpOcc, 0, err
	case OpDeleteQueue:
		return prm.ContainerOpOcc, 0, c.Queue.DeleteQueue(req.Name)
	case OpPutMessage:
		req.Msg, err = c.Queue.Put(req.Name, req.Data, 0)
		req.lat = prm.QueueLat(model.QPut, req.Data.Len())
		return prm.QueueOcc(model.QPut, req.Data.Len(), 0), 0, err
	case OpGetMessage, OpPeekMessage:
		verb := model.QGet
		if req.Kind == OpPeekMessage {
			verb = model.QPeek
		}
		var qlen int
		qlen, req.OK, err = c.Queue.Receive(req.Name, req.Kind == OpPeekMessage, req.TTL, &req.Msg)
		if req.OK {
			down = req.Msg.Body.Len()
		}
		req.lat = prm.QueueLat(verb, down)
		return prm.QueueOcc(verb, down, qlen), down, err
	case OpDeleteMessage:
		req.lat = prm.QueueLat(model.QDelete, 0)
		return prm.QueueOcc(model.QDelete, 0, 0), 0, c.Queue.Delete(req.Name, req.ID, req.PopReceipt)
	case opReplicaDeleteMessage:
		return 0, 0, c.Queue.ReplicaDelete(req.Name, req.ID)
	case OpGetMessageCount:
		req.Count, err = c.Queue.ApproximateCount(req.Name)
		req.lat = prm.QueueLat(model.QPeek, 0)
		return prm.QueueOcc(model.QPeek, 0, 0), reqHeader, err

	case OpCreateTable:
		return prm.ContainerOpOcc, 0, c.Table.CreateTable(req.Name)
	case OpCreateTableIfNotExists:
		req.OK, err = c.Table.CreateTableIfNotExists(req.Name)
		return prm.ContainerOpOcc, 0, err
	case OpInsertEntity:
		req.Row, err = c.Table.Insert(req.Name, req.Ent)
		req.lat = prm.TableLat(model.TInsert)
		// The request body is the row behind the header.
		return prm.TableOcc(model.TInsert, req.up-reqHeader), 0, err
	case OpGetEntity:
		req.Row, err = c.Table.Get(req.Name, req.Key, req.ID)
		if err == nil {
			down = req.Row.Size()
		}
		req.lat = prm.TableLat(model.TQuery)
		return prm.TableOcc(model.TQuery, down), down, err
	case OpUpdateEntity:
		req.Row, err = c.Table.Replace(req.Name, req.Ent, req.IfMatch)
		req.lat = prm.TableLat(model.TUpdate)
		return prm.TableOcc(model.TUpdate, req.up-reqHeader), 0, err
	case OpDeleteEntity:
		req.lat = prm.TableLat(model.TDelete)
		return prm.TableOcc(model.TDelete, 0), 0, c.Table.Delete(req.Name, req.Key, req.ID, req.IfMatch)
	case OpQueryEntities:
		req.Res, err = c.Table.Query(req.Name, req.Filter, req.Top, req.From)
		for _, e := range req.Res.Entities {
			down += e.Size()
		}
		req.lat = prm.TableLat(model.TQuery)
		return prm.TableOcc(model.TQuery, down), down, err

	case OpCachePut:
		req.Version, err = c.cache.Put(req.Name, req.Key, req.Data, req.TTL)
		req.lat = prm.CacheLat
		return prm.CacheOcc(true, req.Data.Len()), 0, err
	case OpCacheGet:
		req.Item, req.OK, err = c.cache.Get(req.Name, req.Key)
		if req.OK {
			down = req.Item.Value.Len()
		}
		req.lat = prm.CacheLat
		return prm.CacheOcc(false, down), down, err
	}
	panic(fmt.Sprintf("cloud: no engine call for op kind %d", req.Kind))
}

// replicate appends the mutation req has just committed to the geo log, to
// be replayed on the secondary's engines by the same apply. The record
// keeps a copy of the engine arguments alone, taken now, when the primary
// has taken them too: the row and the block list are cloned, since their
// caller may change them once the request returns. Records replay in log
// order, so the secondary's per-queue counters reproduce the primary's
// message IDs, while each region stamps its own ETags. Two relaxations
// make a replay of what the primary accepted succeed where the primary's
// preconditions cannot be checked: the primary has checked the ETag, so
// the replay matches any; and the secondary never saw the Get that issued
// the pop receipt, so it deletes the message by ID. The record carries the
// mutation's causal identity, so the replay traces as a child of the op
// that caused it.
func (c *Cloud) replicate(req *request) {
	args := Op{Kind: req.Kind, Name: req.Name, Key: req.Key, ID: req.ID, IfMatch: storecommon.ETagAny,
		PopReceipt: req.PopReceipt, Data: req.Data, Refs: slices.Clone(req.Refs), Off: req.Off, N: req.N,
		TTL: req.TTL, Filter: req.Filter, Top: req.Top, From: req.From}
	if req.Ent != nil {
		args.Ent = req.Ent.Clone()
	}
	if args.Kind == OpDeleteMessage {
		args.Kind = opReplicaDeleteMessage
	}
	op, dst := &ops[req.Kind], c.geoDst
	c.geo.Append(c.env.Now(), op.service, req.Name, op.name, req.up, req.traceID, req.spanID,
		func() error {
			_, _, err := dst.apply(&request{Op: &args})
			return err
		})
}

// spanCutter attributes elapsed virtual time to pipeline stages as the
// request advances. A nil cutter (tracing detached) makes every call a
// no-op, so the happy path pays nothing when observability is off.
type spanCutter struct {
	env   *sim.Env
	last  time.Duration
	spans []trace.Span
}

// cut attributes the time since the previous cut to stage.
func (st *spanCutter) cut(stage string) {
	if st == nil {
		return
	}
	now := st.env.Now()
	d := now - st.last
	st.last = now
	st.add(stage, d)
}

// cutReply attributes the way back of a served request, the program
// [occ, release server, lat, out] that has just run to its end. Nobody was
// there to cut at the instants in between, but a sleep lasts exactly what
// it was asked for (nothing, when that was negative; add ignores it just
// the same), so the spans are the durations themselves, added in the order
// the cuts would have come. The server span cedes its trailing replication
// component.
func (st *spanCutter) cutReply(occ, repl, lat, out time.Duration) {
	if st == nil {
		return
	}
	occ = max(occ, 0)
	repl = min(repl, occ)
	st.add(trace.StageServer, occ-repl)
	st.add(trace.StageReplicate, repl)
	st.add(trace.StagePipeline, lat)
	st.add(trace.StageNicOut, out)
	st.last = st.env.Now()
}

// add accumulates d under stage (merging repeats so spans stay compact).
func (st *spanCutter) add(stage string, d time.Duration) {
	if d <= 0 {
		return
	}
	for i := range st.spans {
		if st.spans[i].Stage == stage {
			st.spans[i].Dur += d
			return
		}
	}
	st.spans = append(st.spans, trace.Span{Stage: stage, Dur: d})
}

var errServerBusy = storecommon.Errf(storecommon.CodeServerBusy, 503,
	"operation was throttled (scalability target exceeded); back off and retry")

// Injected-fault errors surfaced by the request pipeline.
var (
	errOpTimedOut = storecommon.Errf(storecommon.CodeOperationTimedOut, 500,
		"the request was lost and timed out waiting for a response")
	errInternalFault = storecommon.Errf(storecommon.CodeInternalError, 500,
		"the partition server encountered an internal error processing the request")
	errConnReset = storecommon.Errf(storecommon.CodeConnectionReset, 0,
		"the connection was reset mid-transfer")
	errServerUnavailable = storecommon.Errf(storecommon.CodeServerUnavailable, 503,
		"the partition server is temporarily unavailable")
)

// Partition-map protocol errors (dynamic placement only). Both are
// retriable: a redirect resolves on the next attempt because tableRoute
// refetches the invalidated map, and a handoff clears when the blackout
// window ends.
var (
	errPartitionMoved = storecommon.Errf(storecommon.CodePartitionMoved, 410,
		"the partition range has been reassigned; refresh the partition map and retry")
	errPartitionHandoff = storecommon.Errf(storecommon.CodeServerBusy, 503,
		"the partition range is mid-handoff to another server; back off and retry")
)

// do executes the request from process p, first send to final answer, as
// Start's program handed to sim.Proc.Exec: p is resumed once, at the end.
func (cl *Client) do(p *sim.Proc, req *request) error {
	p.Exec(sim.Call(req))
	return req.Err
}

// Start issues op from a Call step of p: it sends the request, as
// op.Kind's blocking method would, and returns, the rest of p's program
// replaced by the request's. The kernel carries the request to its final
// answer, retries included, keeping it in op — op's Answer (and a read's
// Data) are the request's until then — and at the instant the method would
// have returned, then.Resume(p) runs as a Call step of p. Nothing is
// allocated. Start must be its Call step's last act.
func (cl *Client) Start(p *sim.Proc, op *Op, then sim.Cont) {
	req := cl.newRequest(op.Kind)
	req.Op, req.then = op, then
	op.Answer.clear()
	req.send(p)
}

// send starts an attempt of the request: it routes it, opens its trace
// record, decides its faults and puts it on the way in, to the front door,
// where Resume takes over. The request's program runs under its client's
// retry policy, the way sdk.Client.do's loop does for a live request: an
// attempt that fails with an error the policy retries is reissued after
// the policy's backoff — jittered from the simulation PRNG when the policy
// asks for jitter — until one succeeds or the policy gives up, and the
// last attempt's answer is the request's. Every attempt routes again and
// decides its faults again at the instant it starts. One that a GeoClient
// sent to its active region resolves the active region again, so it fails
// over with the account.
//
// Each attempt charges NIC transfer, network round trip, throttles, server
// occupancy and pipeline latency. When a fault injector is attached it
// seals the attempt's fate up front; faults on mutations always fire
// before the engine commits (the operation is lost, not half-applied),
// while a reset on a read cuts the response after the engine has done its
// work — the at-least-once semantics real storage clients must survive.
// With tracing attached each attempt is recorded, the backoff slept before
// it folded into its window as a retry-backoff span.
//
// At each point where the model decides something, Resume picks the
// program's next stretch with Then, ending it in a Call of the request, so
// every event and every counter a checkpoint may read keeps its virtual
// instant (DESIGN.md §17).
func (req *request) send(p *sim.Proc) {
	if req.retries == 0 { // the request as issued
		req.follow = req.cl.geo != nil && req.cl.geo.Active() == req.cl
		req.full, req.start = req.size(), p.Now()
	} else {
		// A retry starts afresh, except for what it repeats and the trace
		// it continues, as a child of the attempt that failed.
		next := req.cl
		if req.follow {
			next = req.by.geo.Active()
		}
		traceID, parentID := req.traceID, req.spanID
		req.clearAttempt()
		req.cl, req.traceID, req.parentID = next, traceID, parentID
		req.Answer.clear()
	}
	cl := req.cl
	c := cl.cloud
	prm := &c.prm
	op := &ops[req.Kind]
	now := c.env.Now()
	req.up = req.full
	req.route()
	if c.traceLog != nil {
		req.st = &spanCutter{env: c.env, last: now}
		req.st.add(trace.StageRetryBackoff, req.backoff)
		if req.traceID == "" {
			req.traceID = c.ids.TraceID()
		}
		req.spanID = c.ids.SpanID()
		req.sent = now - req.backoff
	}
	if c.faults != nil {
		req.dec = c.faults.DecideIn(now, c.region, op.service, op.name, req.server.Name())
	}
	req.phase = phaseAdmit
	if req.dec.Kind == faults.Reset && req.Kind.is(mutates) {
		// The connection dies while the request body is in flight: a
		// prefix of the payload crosses the NIC, the engine sees nothing.
		req.up = int64(float64(req.up) * req.dec.Cut) // the trace records what actually moved
		req.phase = phaseReset
	}
	// The way in: serialise, put the body on the wire, reach the front
	// door.
	in := append(make([]sim.Step, 0, sim.MaxSteps), sim.Sleep(prm.RequestOverhead))
	if req.up > 0 {
		in = append(in, sim.Acquire(cl.nic), sim.Sleep(model.Xfer(req.up, cl.vm.NICBps)), sim.Release(cl.nic),
			sim.Add(&c.stats.BytesIn, req.up))
	}
	if req.phase != phaseReset {
		in = append(in, sim.Sleep(prm.RTT/2))
	}
	p.Then(append(in, sim.Call(req))...)
}

// route sends the attempt to its partition server: a blob mutation to the
// partition's primary (a container is a partition of its own) and a blob
// read to the next read replica, a queue op to its queue's server, a table
// op where the client's partition map places its key, a cache op to the
// node that owns its key. A queue or table op's name resolves once, to a
// site that also holds the handle of the limiter admit consults.
func (req *request) route() {
	cl := req.cl
	c := cl.cloud
	switch ops[req.Kind].service {
	case "blob":
		rs := c.blobReplicas(req.Name, req.Key)
		if req.Kind.is(mutates) {
			req.server = rs.primary()
		} else {
			req.server = c.readReplica(rs)
		}
	case "queue":
		site := c.queueSite(req.Name)
		req.server, req.lim = site.srv, &site.lim
	case "table":
		site := c.partSite(req.Name, req.Key)
		req.lim = &site.lim
		req.server, req.serverIdx = cl.tableRoute(req.Name, req.Key, site.idx)
	default:
		req.server = c.cacheServer(req.Name, req.Key)
	}
}

// Resume makes the request's decisions at the instants its program reaches
// them, and swaps in the program's next stretch (sim.Call).
func (req *request) Resume(p *sim.Proc) {
	cl := req.cl
	c := cl.cloud
	prm := &c.prm
	switch req.phase {
	case phaseSend:
		req.send(p)
	case phaseAdmit:
		req.st.cut(trace.StageNicIn)
		req.admit(p)
	case phaseServe:
		req.st.cut(trace.StageQueueWait)
		if req.dec.Kind == faults.Internal {
			// The server accepted the request but failed before handing it
			// to the engine; it burns some occupancy, then the 500 travels
			// back.
			req.phase = phaseFailed
			p.Then(sim.Sleep(req.dec.Occ), sim.Release(req.server), sim.Call(req))
			return
		}
		req.occ, req.down, req.Err = c.apply(req)
		if req.Err == nil && c.geo != nil && req.Kind.is(geoRepl) {
			c.replicate(req)
		}
		c.stats.Ops++
		// The way back: hold the server for the occupancy, then the
		// storage pipeline and the network.
		req.phase = phaseReply
		p.Then(sim.Sleep(req.occ), sim.Release(req.server), sim.Sleep(req.lat), sim.Sleep(prm.RTT/2), sim.Call(req))
	case phaseFailed:
		req.st.cut(trace.StageServer)
		c.stats.FaultInternals++
		req.fault = req.dec.Kind.String()
		req.exit(p, errInternalFault, prm.RTT/2, trace.StageNicOut)
	case phaseReply:
		var repl time.Duration
		if req.Kind.is(syncRepl) {
			repl = prm.ReplCost()
		}
		req.st.cutReply(req.occ, repl, req.lat, prm.RTT/2)
		down := req.down
		req.phase = phaseDone
		if req.dec.Kind == faults.Reset {
			// Read-path reset: the engine did the work, but the response
			// is cut mid-transfer; the truncated prefix still crosses the
			// wire.
			req.down = int64(float64(down) * req.dec.Cut)
			req.phase = phaseReset
			if req.down > 0 {
				p.Then(sim.Acquire(cl.nic), sim.Sleep(model.Xfer(req.down, cl.vm.NICBps)), sim.Release(cl.nic), sim.Call(req))
				return
			}
		} else if down > 0 {
			c.accountBW.Debit(c.env.Now(), float64(down))
			req.stage = trace.StageNicOut
			p.Then(sim.Acquire(cl.nic), sim.Sleep(model.Xfer(down, cl.vm.NICBps)), sim.Release(cl.nic),
				sim.Add(&c.stats.BytesOut, down), sim.Call(req))
			return
		}
		req.finish(p)
	case phaseDone, phaseReset:
		req.finish(p)
	}
}

// finish ends the attempt — the reset that cut it or the cut of its last
// stretch, and its trace record — then retries the request, or answers it:
// a request that Start issued goes back to the free list, and the program
// goes on with the caller's Call step.
func (req *request) finish(p *sim.Proc) {
	c := req.cl.cloud
	if req.phase == phaseReset {
		req.reset()
	} else {
		req.st.cut(req.stage)
	}
	now := c.env.Now()
	if c.traceLog != nil {
		op := &ops[req.Kind]
		c.traceLog.Record(trace.Op{
			Start:    req.sent,
			Duration: now - req.sent,
			Client:   req.cl.name,
			Service:  op.service,
			Name:     op.name,
			Bytes:    req.up + req.down,
			Err:      string(storecommon.CodeOf(req.Err)),
			Fault:    req.fault,
			TraceID:  req.traceID,
			SpanID:   req.spanID,
			ParentID: req.parentID,
			Spans:    req.st.spans,
		})
	}
	if pol := &req.by.policy; req.Err != nil && pol.ShouldRetry(req.retries, now-req.start, req.Err) {
		req.backoff = pol.Delay(req.retries, p.Rand().Float64)
		req.retries++
		c.stats.Retries++
		req.phase = phaseSend
		p.Then(sim.Sleep(req.backoff), sim.Call(req))
		return
	}
	if then := req.then; then != nil {
		req.by.cloud.release(req)
		then.Resume(p)
	}
}

// admit is the front door: the faults that strike before it, the
// partition map's check of the route (dynamic placement), and admission
// control. A request that gets through queues for its server.
func (req *request) admit(p *sim.Proc) {
	cl := req.cl
	c := cl.cloud
	rtt2 := c.prm.RTT / 2
	switch req.dec.Kind {
	case faults.Timeout:
		// The request vanished in the network; the client waits out its
		// timeout and gives up. Nothing downstream ever saw it.
		c.stats.FaultTimeouts++
		req.fault = req.dec.Kind.String()
		req.exit(p, errOpTimedOut, req.dec.Wait, trace.StageFaultWait)
		return
	case faults.Outage:
		// The partition server is inside an unavailability window; the
		// front door answers 503 immediately.
		c.stats.FaultOutages++
		req.fault = req.dec.Kind.String()
		req.exit(p, errServerUnavailable, rtt2, trace.StageNicOut)
		return
	}

	// Partition-map validation (dynamic placement): the addressed server
	// checks that it still owns the key's range. The master observes the
	// request first — this is where its control loop ticks, so splits are
	// driven by the load they react to — then a stale route bounces with a
	// redirect and a mid-handoff range answers ServerBusy.
	now := c.env.Now()
	if req.Kind.is(partLimit) && c.pmgr.Dynamic() {
		c.notePartitionEvents(c.pmgr.Record(now, req.Name, req.Key))
		owner, unavailUntil := c.pmgr.Lookup(req.Name, req.Key)
		if req.serverIdx != owner {
			c.pmgr.NoteRedirect()
			delete(cl.maps, req.Name)
			req.exit(p, errPartitionMoved, rtt2, trace.StageNicOut)
			return
		}
		if now < unavailUntil {
			c.pmgr.NoteHandoffReject()
			req.exit(p, errPartitionHandoff, rtt2, trace.StageHandoff)
			return
		}
	}

	// Admission control at the front door: one transaction each.
	admitted := c.accountTx.Allow(now, 1) &&
		c.accountBW.Allow(now, float64(req.up))
	if admitted && req.Kind.is(queueLimit|partLimit) {
		admitted = c.limiter(req).Allow(now, 1)
	}
	if !admitted {
		c.stats.BusyRejects++
		req.exit(p, errServerBusy, rtt2, trace.StageThrottle)
		return
	}
	req.phase = phaseServe
	p.Then(sim.Acquire(req.server), sim.Call(req))
}

// exit fails the attempt with err: the answer takes d to reach the
// client, traced as stage.
func (req *request) exit(p *sim.Proc, err error, d time.Duration, stage string) {
	req.Err, req.stage, req.phase = err, stage, phaseDone
	p.Then(sim.Sleep(d), sim.Call(req))
}

// reset fails a request whose connection was cut, once its partial payload
// — the request body's prefix (a mutation), or the response's — has crossed
// the client NIC, which the account bandwidth meter charges on the way
// back.
func (req *request) reset() {
	c := req.cl.cloud
	if req.Kind.is(mutates) {
		req.st.cut(trace.StageNicIn)
	} else {
		if part := req.down; part > 0 {
			c.accountBW.Debit(c.env.Now(), float64(part))
			c.stats.BytesOut += part
		}
		req.st.cut(trace.StageNicOut)
	}
	c.stats.FaultResets++
	req.fault = faults.Reset.String()
	req.Err = errConnReset
}

// --- Client ---

// Client is the storage client of one role-instance VM. Each client owns
// its VM's NIC; a client's methods must be called from simulation
// processes (typically the role's own process).
type Client struct {
	cloud  *Cloud
	name   string
	vm     model.VMSize
	nic    *sim.Resource
	policy retry.Policy
	// maps caches one partition-map snapshot per table under dynamic
	// placement; entries expire after PartitionMapCacheTTL and are dropped
	// eagerly when the front door answers PartitionMoved.
	maps map[string]*clientMap
	// geo is the pair this client belongs to, if any (GeoClient).
	geo *GeoClient
}

// clientMap is one cached partition-map snapshot with its fetch time.
type clientMap struct {
	snap      *partitionmgr.TableMap
	fetchedAt time.Duration
}

// tableRoute resolves the table server for (table, pk) through the
// client's view of the world. Static placement goes where the master
// pinned the partition, idx (index -1: the route can never go stale). Dynamic
// placement consults the client's cached partition map, refetching from
// the master when the entry is missing or older than the map-cache TTL;
// the returned index travels with the request so the server can detect a
// stale route.
func (cl *Client) tableRoute(table, pk string, idx int) (*sim.Resource, int) {
	c := cl.cloud
	if !c.pmgr.Dynamic() {
		return c.tableServerAt(idx), -1
	}
	now := c.env.Now()
	ent := cl.maps[table]
	if ent == nil || now-ent.fetchedAt > c.prm.PartitionMapCacheTTL {
		if cl.maps == nil {
			cl.maps = map[string]*clientMap{}
		}
		ent = &clientMap{snap: c.pmgr.Snapshot(table), fetchedAt: now}
		cl.maps[table] = ent
		c.ensureTableServers()
	}
	idx = ent.snap.Owner(pk)
	return c.tableServerAt(idx), idx
}

// NewClient creates a client bound to a VM of the given size. Its default
// retry policy is the paper's — sleep RetryBackoff and reissue whenever a
// request is throttled with ServerBusy ("the worker sleeps for a second
// before retrying the same operation") — capped in attempts, so a limiter
// that never recovers returns its error instead of spinning forever.
func (c *Cloud) NewClient(name string, vm model.VMSize) *Client {
	return &Client{
		cloud:  c,
		name:   name,
		vm:     vm,
		nic:    sim.NewResource(c.env, c.station("nic:"+name), 1),
		policy: retry.Paper(c.prm.RetryBackoff),
	}
}

// SetRetryPolicy replaces the policy every request of the client retries
// under; retry.Policy{} makes one attempt.
func (cl *Client) SetRetryPolicy(pol retry.Policy) { cl.policy = pol }

// ThinkTime returns roughly d (the paper's Algorithm 4 think time), with
// the model's multiplicative jitter drawn from the simulation's PRNG, so
// that synchronized workers that sleep it decohere the way
// independently-scheduled VMs do.
func (cl *Client) ThinkTime(d time.Duration) time.Duration {
	if j := cl.cloud.prm.ThinkJitter; j > 0 {
		d = time.Duration(float64(d) * (1 + j*(2*cl.cloud.env.Rand().Float64()-1)))
	}
	return d
}

// reqHeader approximates the HTTP header overhead of a request.
const reqHeader = 512
