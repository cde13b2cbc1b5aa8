package cloud

import (
	"fmt"
	"testing"
	"time"

	"azurebench/internal/faults"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/tablestore"
	"azurebench/internal/trace"
)

// newSnapshotGeo builds the geo-replicated account the snapshot tests save
// and restore: dynamic table partitioning, a fault injector and a trace
// attached, so every kind of section is registered.
func newSnapshotGeo(tb testing.TB, env *sim.Env) *GeoAccount {
	tb.Helper()
	prm := geoParams()
	prm.PartitionDynamic = true
	prm.TableServers = 2
	prm.MaxTableServers = 4
	prm.PartitionSplitOpsPerSec = 50
	prm.PartitionControlInterval = 500 * time.Millisecond
	prm.PartitionOpsPerSec = 1e6
	prm.PartitionBurst = 1e6
	g, err := NewGeoAccount(env, prm)
	if err != nil {
		tb.Fatal(err)
	}
	g.SetFaults(faults.NewInjector(faults.Plan{Seed: 5, Rules: []faults.Rule{{Kind: faults.Internal, Rate: 0.02}}}))
	g.SetTrace(trace.New(0))
	return g
}

// warmGeo runs a little of every kind of traffic through a snapshot
// account and returns it drained: four writers, each with its own table,
// queue and container (twelve replication partitions), hot table keys that
// make the partition master split, a window histogram left over since its
// last control tick, and metadata on the writers' blobs and on a queue.
func warmGeo(tb testing.TB) *GeoAccount {
	tb.Helper()
	env := sim.NewEnv(11)
	g := newSnapshotGeo(tb, env)
	// Queue metadata only ever arrives in a checkpoint, so the primary's
	// queue engine starts from one: rng state, pop-receipt sequence, and
	// one empty queue carrying three metadata pairs.
	var w snap.Writer
	w.U64(7)
	w.U64(0)
	w.Int(1)
	w.String("meta-queue")
	w.Time(time.Time{})
	w.Int(3)
	for _, kv := range [][2]string{{"owner", "w0"}, {"shard", "3"}, {"tier", "hot"}} {
		w.String(kv[0])
		w.String(kv[1])
	}
	w.U64(0)
	w.Int(0)
	if err := g.pri.Queue.Load(snap.NewReader(w.Bytes())); err != nil {
		tb.Fatal(err)
	}
	for k := 0; k < 4; k++ {
		gc := g.NewGeoClient(fmt.Sprintf("vm%d", k), model.Small)
		env.Go(fmt.Sprintf("writer%d", k), func(p *sim.Proc) {
			cl := gc.Active()
			cl.SetRetryPolicy(retry.Resilient())
			table, queue, cont := fmt.Sprintf("table%d", k), fmt.Sprintf("queue-%d", k), fmt.Sprintf("cont-%d", k)
			try := func(_ any, err error) {
				if err != nil {
					tb.Errorf("writer %d: %v", k, err)
				}
			}
			try(cl.CreateTableIfNotExists(p, table))
			try(cl.CreateQueueIfNotExists(p, queue))
			try(cl.CreateContainerIfNotExists(p, cont))
			try(nil, cl.UploadBlockBlob(p, cont, "b", payload.Synthetic(uint64(k), 4096)))
			md := map[string]string{"a": "1", "b": "2", "c": "3", "d": fmt.Sprint(k)}
			if err := g.pri.Blob.SetMetadata(cont, "b", md, ""); err != nil {
				tb.Error(err)
			}
			for i := 0; i < 16; i++ {
				e := &tablestore.Entity{PartitionKey: fmt.Sprintf("pk%02d", i), RowKey: "r"}
				try(cl.InsertEntity(p, table, e))
			}
			for i := 0; i < 600; i++ {
				pk := fmt.Sprintf("pk%02d", i%5)
				try(cl.GetEntity(p, table, pk, "r"))
				if i%20 == 0 {
					try(cl.PutMessage(p, queue, payload.Synthetic(uint64(i), 64)))
					e := &tablestore.Entity{PartitionKey: pk, RowKey: "r", Props: map[string]tablestore.Value{"N": tablestore.Int32(int32(i))}}
					try(cl.UpdateEntity(p, table, e, "*"))
				}
			}
		})
	}
	env.Run()
	if st := g.pri.PartitionMgr().Stats(); st.Splits == 0 {
		tb.Fatalf("no table range split while warming: %+v", st)
	}
	return g
}

// TestSaveIsByteStable saves every section of a warmed account again and
// again and requires the first save's bytes each time: no map's iteration
// order may reach a section. Twenty re-saves make a missed sort fail for
// certain, not by chance.
func TestSaveIsByteStable(t *testing.T) {
	reg := &snap.Registry{}
	warmGeo(t).RegisterSnapshot(reg)
	var f snap.File
	reg.SaveAll(&f)
	first, err := snap.Decode(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := reg.VerifyAll(first); err != nil {
			t.Fatalf("re-save %d: %v", i+1, err)
		}
	}
}

// FuzzLoadSection feeds arbitrary bytes to one section of a warmed
// account's checkpoint at a time and restores the whole file into a fresh
// account. A checkpoint file is outside input — a scenario's checkpoint:
// stanza restores whatever file it names, and the checksums do not
// authenticate it — so a bad section must fail the restore: it may not
// panic, and it may not hang.
func FuzzLoadSection(f *testing.F) {
	reg := &snap.Registry{}
	warmGeo(f).RegisterSnapshot(reg)
	var file snap.File
	reg.SaveAll(&file)
	warm, err := snap.Decode(file.Encode())
	if err != nil {
		f.Fatal(err)
	}
	for i, s := range warm.Sections {
		f.Add(uint8(i), s.Payload)
		if s.Name == RegionPrimary+"/engine/queue" {
			// Zero rng state and pop-receipt sequence, one queue with an
			// empty name and no creation time, and a metadata count of
			// ASCII zeros: a loader that trusts the count spins for 3.5e18
			// iterations.
			crafted := append(make([]byte, 23), 1, 0, 0, 0, 0, 0)
			f.Add(uint8(i), append(crafted, "00000000000000000000000000000000000000000000"...))
		}
	}
	restore := func(tb testing.TB, sections []snap.Section) error {
		reg := &snap.Registry{}
		newSnapshotGeo(tb, sim.NewEnv(11)).RegisterSnapshot(reg)
		return reg.LoadAll(&snap.File{Sections: sections})
	}
	// Every seed reaches its section's loader: the sections before it load.
	if err := restore(f, warm.Sections); err != nil {
		f.Fatalf("the warmed checkpoint does not restore: %v", err)
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		sections := append([]snap.Section(nil), warm.Sections...)
		sections[int(which)%len(sections)].Payload = data
		_ = restore(t, sections) // any error will do
	})
}

// TestLimiterHandlesTakenBeforeLoad: a request routed before a snapshot
// Load and admitted after it holds the limiter handle of a site that Load
// replaced. Through it, admission must reach the bucket Load restored,
// exactly as the name would — also when the snapshot predates the pool.
func TestLimiterHandlesTakenBeforeLoad(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, model.Default())
	var reg snap.Registry
	c.RegisterSnapshot(&reg, "")
	var empty snap.File // before any queue or table op: no pool yet
	reg.SaveAll(&empty)
	if err := c.Queue.CreateQueue("jobs"); err != nil {
		t.Fatal(err)
	}
	if err := c.Table.CreateTable("tbl"); err != nil {
		t.Fatal(err)
	}
	cl := c.NewClient("vm0", model.Small)
	cl.SetRetryPolicy(retry.Policy{})
	ops := func() {
		env.Go("ops", func(p *sim.Proc) {
			if _, err := cl.PutMessage(p, "jobs", payload.Zero(8)); err != nil {
				t.Error(err)
			}
			if _, err := cl.InsertEntity(p, "tbl", &tablestore.Entity{PartitionKey: "pk", RowKey: fmt.Sprint(p.Now())}); err != nil {
				t.Error(err)
			}
		})
		env.Run()
	}
	ops()
	var warm snap.File
	reg.SaveAll(&warm)
	for _, f := range []*snap.File{&warm, &empty} {
		ops() // moves both buckets on from the snapshot
		qh, ph := &c.queueSite("jobs").lim, &c.partSite("tbl", "pk").lim
		if err := reg.LoadAll(f); err != nil {
			t.Fatal(err)
		}
		if q := c.limiter(&request{Op: &Op{Kind: OpPutMessage}, lim: qh}); q != c.queueTB.Get(env.Now(), "jobs") {
			t.Error("a queue handle taken before Load kept the bucket Load replaced")
		}
		if p := c.limiter(&request{Op: &Op{Kind: OpInsertEntity}, lim: ph}); p != c.tableTB.Get(env.Now(), "tbl|pk") {
			t.Error("a partition handle taken before Load kept the bucket Load replaced")
		}
	}
}
