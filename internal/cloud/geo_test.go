package cloud

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"azurebench/internal/blobstore"
	"azurebench/internal/cachestore"
	"azurebench/internal/faults"
	"azurebench/internal/georepl"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/retry"
	"azurebench/internal/sim"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
	"azurebench/internal/telemetry"
)

func geoParams() model.Params {
	prm := model.Default()
	prm.GeoRegions = 2
	prm.GeoReplicationLagBound = time.Second
	prm.GeoWANRTT = 70 * time.Millisecond
	prm.GeoFailoverDetection = 500 * time.Millisecond
	prm.GeoPromotionBlackout = 100 * time.Millisecond
	return prm
}

func TestGeoReplicationMirrorsAllServices(t *testing.T) {
	env := sim.NewEnv(3)
	g, err := NewGeoAccount(env, geoParams())
	if err != nil {
		t.Fatalf("NewGeoAccount: %v", err)
	}
	gc := g.NewGeoClient("writer", model.Small)
	env.Go("writer", func(p *sim.Proc) {
		cl := gc.Active()
		must(t, cl.CreateContainer(p, "cont"))
		must(t, cl.UploadBlockBlob(p, "cont", "b1", payload.Zero(4096)))
		must(t, cl.CreateQueue(p, "jobs"))
		if _, err := cl.PutMessage(p, "jobs", payload.Zero(128)); err != nil {
			t.Errorf("PutMessage: %v", err)
		}
		must(t, cl.CreateTable(p, "orders"))
		e := &tablestore.Entity{PartitionKey: "p1", RowKey: "r1",
			Props: map[string]tablestore.Value{"Data": tablestore.Binary(payload.Zero(256))}}
		if _, err := cl.InsertEntity(p, "orders", e); err != nil {
			t.Errorf("InsertEntity: %v", err)
		}
	})
	env.Run()

	// Every mutation must have replayed onto the secondary's engines.
	sec := g.Secondary()
	if data, _, err := sec.Blob.Download("cont", "b1"); err != nil || data.Len() != 4096 {
		t.Errorf("secondary blob = %v bytes, err %v; want 4096, nil", data.Len(), err)
	}
	if n, err := sec.Queue.ApproximateCount("jobs"); err != nil || n != 1 {
		t.Errorf("secondary queue count = %d, err %v; want 1, nil", n, err)
	}
	if _, err := sec.Table.Get("orders", "p1", "r1"); err != nil {
		t.Errorf("secondary entity missing: %v", err)
	}
	st := g.Forward().Stats()
	if st.Appended != 6 || st.Applied != 6 || st.LostAtFreeze != 0 {
		t.Errorf("forward stream stats = %+v, want 6 appended and applied", st)
	}
	if g.LastSyncTime() == 0 {
		t.Error("LastSyncTime still zero after replication")
	}
	// The primary's engines never saw replayed traffic (counts match what
	// the writer itself did).
	if n, _ := g.pri.Queue.ApproximateCount("jobs"); n != 1 {
		t.Errorf("primary queue count = %d, want 1", n)
	}
}

// TestGeoMirrorsEveryMutation drives each of the 18 replicated mutations
// through a GeoClient, with real ETags and a real pop receipt. Once the
// stream drains, the secondary's engines must hold what the primary's hold
// and whatever was deleted must be gone there too. The replay must reach
// the secondary's engines without passing its front door, and a cache write
// is not replicated at all.
func TestGeoMirrorsEveryMutation(t *testing.T) {
	env := sim.NewEnv(3)
	g, err := NewGeoAccount(env, geoParams())
	if err != nil {
		t.Fatalf("NewGeoAccount: %v", err)
	}
	gc := g.NewGeoClient("w", model.Small)
	mutations := 0
	env.Go("w", func(p *sim.Proc) {
		cl := gc.Active()
		step := func(op string, err error) {
			mutations++
			if err != nil {
				t.Errorf("%s: %v", op, err)
			}
		}
		row := func(rk string, v int32) *tablestore.Entity {
			return &tablestore.Entity{PartitionKey: "p1", RowKey: rk, Props: map[string]tablestore.Value{
				"V": tablestore.Int32(v), "Data": tablestore.Binary(payload.Synthetic(uint64(v), 64))}}
		}

		step("CreateContainer", cl.CreateContainer(p, "cont"))
		_, err := cl.CreateContainerIfNotExists(p, "spare")
		step("CreateContainerIfNotExists", err)
		step("PutBlock", cl.PutBlock(p, "cont", "blocks", "YQ==", payload.Synthetic(1, 300)))
		step("PutBlock", cl.PutBlock(p, "cont", "blocks", "Yg==", payload.Synthetic(2, 200)))
		step("PutBlockList", cl.PutBlockList(p, "cont", "blocks", []blobstore.BlockRef{{ID: "Yg=="}, {ID: "YQ=="}}))
		step("UploadBlockBlob", cl.UploadBlockBlob(p, "cont", "whole", payload.Synthetic(3, 4096)))
		step("UploadBlockBlob", cl.UploadBlockBlob(p, "cont", "doomed", payload.Synthetic(4, 64)))
		step("DeleteBlob", cl.DeleteBlob(p, "cont", "doomed"))
		step("CreatePageBlob", cl.CreatePageBlob(p, "cont", "pages", 4096))
		step("PutPage", cl.PutPage(p, "cont", "pages", 1024, payload.Synthetic(5, 512)))

		step("CreateQueue", cl.CreateQueue(p, "jobs"))
		_, err = cl.CreateQueueIfNotExists(p, "doomed")
		step("CreateQueueIfNotExists", err)
		step("DeleteQueue", cl.DeleteQueue(p, "doomed"))
		for i := 0; i < 3; i++ {
			_, err := cl.PutMessage(p, "jobs", payload.Synthetic(uint64(10+i), 100))
			step("PutMessage", err)
		}
		msg, ok, err := cl.GetMessage(p, "jobs", time.Minute)
		if err != nil || !ok {
			t.Fatalf("GetMessage: ok=%v err=%v", ok, err)
		}
		step("DeleteMessage", cl.DeleteMessage(p, "jobs", msg.ID, msg.PopReceipt))

		step("CreateTable", cl.CreateTable(p, "orders"))
		_, err = cl.CreateTableIfNotExists(p, "spare")
		step("CreateTableIfNotExists", err)
		kept, err := cl.InsertEntity(p, "orders", row("kept", 1))
		step("InsertEntity", err)
		doomed, err := cl.InsertEntity(p, "orders", row("doomed", 1))
		step("InsertEntity", err)
		_, err = cl.UpdateEntity(p, "orders", row("kept", 2), kept.ETag())
		step("UpdateEntity", err)
		step("DeleteEntity", cl.DeleteEntity(p, "orders", "p1", "doomed", doomed.ETag()))

		if _, err := cl.CachePut(p, cachestore.DefaultCache, "k", payload.Zero(8), 0); err != nil {
			t.Errorf("CachePut: %v", err)
		}
	})
	env.Run()

	st := g.Forward().Stats()
	if st.Appended != uint64(mutations) || st.Applied != st.Appended || st.ApplyErrors != 0 {
		t.Errorf("forward stream %+v after %d replicated mutations; want each appended and applied once, no errors", st, mutations)
	}
	pri, sec := g.pri, g.Secondary()

	if got, want := sec.Blob.ListContainers(""), pri.Blob.ListContainers(""); !reflect.DeepEqual(got, want) {
		t.Errorf("secondary containers %v, primary %v", got, want)
	}
	if got, _ := sec.Blob.ListBlobs("cont", ""); !reflect.DeepEqual(got, []string{"blocks", "pages", "whole"}) {
		t.Errorf("secondary blobs %v, want blocks, pages and whole", got)
	}
	for _, b := range []string{"blocks", "whole", "pages"} {
		want, _, err := pri.Blob.Download("cont", b)
		if err != nil {
			t.Fatalf("primary %s: %v", b, err)
		}
		if got, _, err := sec.Blob.Download("cont", b); err != nil || !payload.Equal(got, want) {
			t.Errorf("secondary %s: %d bytes, err %v; want the primary's %d bytes", b, got.Len(), err, want.Len())
		}
	}
	wantList, _, _ := pri.Blob.GetBlockList("cont", "blocks")
	if got, _, err := sec.Blob.GetBlockList("cont", "blocks"); err != nil || !reflect.DeepEqual(got, wantList) || len(got) != 2 {
		t.Errorf("secondary block list %v, err %v; want the primary's %v", got, err, wantList)
	}
	wantPages, _ := pri.Blob.GetPageRanges("cont", "pages")
	if got, err := sec.Blob.GetPageRanges("cont", "pages"); err != nil || !reflect.DeepEqual(got, wantPages) || len(got) == 0 {
		t.Errorf("secondary page ranges %v, err %v; want the primary's %v", got, err, wantPages)
	}

	if got := sec.Queue.ListQueues(""); !reflect.DeepEqual(got, []string{"jobs"}) {
		t.Errorf("secondary queues %v, want jobs alone", got)
	}
	wantMsgs, _ := pri.Queue.Peek("jobs", 32)
	gotMsgs, err := sec.Queue.Peek("jobs", 32)
	if err != nil || len(gotMsgs) != len(wantMsgs) || len(gotMsgs) != 2 {
		t.Fatalf("secondary holds %d messages, err %v; the primary %d, want 2", len(gotMsgs), err, len(wantMsgs))
	}
	for i := range wantMsgs {
		if gotMsgs[i].ID != wantMsgs[i].ID || !payload.Equal(gotMsgs[i].Body, wantMsgs[i].Body) {
			t.Errorf("secondary message %d is %s, the primary's %s", i, gotMsgs[i].ID, wantMsgs[i].ID)
		}
	}

	if got, want := sec.Table.ListTables(""), pri.Table.ListTables(""); !reflect.DeepEqual(got, want) {
		t.Errorf("secondary tables %v, primary %v", got, want)
	}
	wantRows, _ := pri.Table.QueryAll("orders", "")
	gotRows, err := sec.Table.QueryAll("orders", "")
	if err != nil || len(gotRows) != 1 || len(wantRows) != 1 {
		t.Fatalf("secondary holds %d rows, err %v; the primary %d, want 1", len(gotRows), err, len(wantRows))
	}
	if !sameRow(gotRows[0], wantRows[0]) {
		t.Errorf("secondary row %s differs from the primary's", gotRows[0].RowKey())
	}
	if v, _ := gotRows[0].Prop("V"); !v.Equal(tablestore.Int32(2)) {
		t.Errorf("secondary row V = %v, want the update's 2", v)
	}

	// The replay went to the engines, never through the front door.
	if s := sec.Stats(); s != (Stats{}) {
		t.Errorf("secondary front-door stats %+v, want zero", s)
	}
	if s := sec.Stations(); len(s) != 0 {
		t.Errorf("secondary has %d stations, want none", len(s))
	}
}

// TestGeoReplicaTakesArgumentsAtCommit: the primary commits a request's
// arguments when its partition server serves it, not when the caller
// issues it, so a caller that changes its entity or its block list while
// the request is in flight changes what the primary stores. The replica
// must store the same, and must not see what the caller changes once the
// request has returned, while the record waits to be shipped.
func TestGeoReplicaTakesArgumentsAtCommit(t *testing.T) {
	env := sim.NewEnv(3)
	g, err := NewGeoAccount(env, geoParams())
	if err != nil {
		t.Fatalf("NewGeoAccount: %v", err)
	}
	gc := g.NewGeoClient("w", model.Small)
	later := func(p *sim.Proc, edit func()) {
		env.GoAt(p.Now()+time.Microsecond, "meddler", func(*sim.Proc) { edit() })
	}
	env.Go("w", func(p *sim.Proc) {
		cl := gc.Active()
		must(t, cl.CreateTable(p, "orders"))
		must(t, cl.CreateContainer(p, "cont"))
		must(t, cl.PutBlock(p, "cont", "b", "YQ==", payload.Synthetic(1, 10)))
		must(t, cl.PutBlock(p, "cont", "b", "Yg==", payload.Synthetic(2, 20)))

		e := &tablestore.Entity{PartitionKey: "p", RowKey: "r", Props: map[string]tablestore.Value{"V": tablestore.Int32(1)}}
		later(p, func() { e.Props = map[string]tablestore.Value{"V": tablestore.Int32(2)} })
		if _, err := cl.InsertEntity(p, "orders", e); err != nil {
			t.Errorf("InsertEntity: %v", err)
		}
		e.Props = map[string]tablestore.Value{"V": tablestore.Int32(3)}

		refs := []blobstore.BlockRef{{ID: "YQ=="}}
		later(p, func() { refs[0].ID = "Yg==" })
		must(t, cl.PutBlockList(p, "cont", "b", refs))
		refs[0].ID = "YQ=="
	})
	env.Run()

	pri, sec := g.pri, g.Secondary()
	want, err := pri.Table.Get("orders", "p", "r")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sec.Table.Get("orders", "p", "r"); err != nil || !sameRow(got, want) {
		v, _ := got.Prop("V")
		w, _ := want.Prop("V")
		t.Errorf("secondary row V=%d (err %v), primary V=%d", v.I, err, w.I)
	}
	wantBlob, _, err := pri.Blob.Download("cont", "b")
	if err != nil {
		t.Fatal(err)
	}
	if got, _, err := sec.Blob.Download("cont", "b"); err != nil || !payload.Equal(got, wantBlob) {
		t.Errorf("secondary blob %d bytes (err %v), primary %d", got.Len(), err, wantBlob.Len())
	}
	if st := g.Forward().Stats(); st.Applied != st.Appended || st.ApplyErrors != 0 {
		t.Errorf("forward stream %+v", st)
	}
}

// sameRow reports whether two rows have the same keys and properties; each
// region stamps its own ETags and timestamps.
func sameRow(a, b tablestore.Row) bool {
	if a.PartitionKey() != b.PartitionKey() || a.RowKey() != b.RowKey() || a.Len() != b.Len() {
		return false
	}
	same := true
	a.Range(func(name string, v tablestore.Value) bool {
		w, ok := b.Prop(name)
		same = ok && v.Equal(w)
		return same
	})
	return same
}

func TestGeoQueueDeleteReplaysByID(t *testing.T) {
	env := sim.NewEnv(3)
	g, err := NewGeoAccount(env, geoParams())
	if err != nil {
		t.Fatalf("NewGeoAccount: %v", err)
	}
	gc := g.NewGeoClient("w", model.Small)
	env.Go("w", func(p *sim.Proc) {
		cl := gc.Active()
		must(t, cl.CreateQueue(p, "que"))
		if _, err := cl.PutMessage(p, "que", payload.Zero(64)); err != nil {
			t.Fatalf("put: %v", err)
		}
		// Wait for the Put to replicate before consuming it, so the
		// replayed delete finds the mirrored message.
		p.Sleep(2 * time.Second)
		msg, ok, err := cl.GetMessage(p, "que", 0)
		if err != nil || !ok {
			t.Fatalf("get: ok=%v err=%v", ok, err)
		}
		must(t, cl.DeleteMessage(p, "que", msg.ID, msg.PopReceipt))
	})
	env.Run()
	if n, _ := g.Secondary().Queue.ApproximateCount("que"); n != 0 {
		t.Errorf("secondary queue holds %d messages after replicated delete, want 0", n)
	}
	if st := g.Forward().Stats(); st.ApplyErrors != 0 {
		t.Errorf("replay errors: %+v", st)
	}
}

func TestGeoFailoverCycle(t *testing.T) {
	env := sim.NewEnv(5)
	prm := geoParams()
	g, err := NewGeoAccount(env, prm)
	if err != nil {
		t.Fatalf("NewGeoAccount: %v", err)
	}
	outageStart, outageDur := 10*time.Second, 5*time.Second
	g.SetFaults(faults.NewInjector(faults.Plan{
		Outages: []faults.Window{OutageWindow(outageStart, outageDur)},
	}))
	g.ScheduleFailover(outageStart, outageDur)

	gc := g.NewGeoClient("w", model.Small)
	pol := retry.Resilient()
	pol.MaxAttempts = 50
	pol.Deadline = time.Minute
	gc.SetRetryPolicy(pol)
	var failedOver time.Duration
	env.Go("w", func(p *sim.Proc) {
		cl := gc.Active()
		must(t, cl.CreateQueue(p, "que"))
		for i := 0; i < 100; i++ {
			wasPrimary := gc.Active() == cl
			if _, err := gc.Active().PutMessage(p, "que", payload.Zero(64)); err != nil {
				t.Errorf("put %d failed terminally: %v", i, err)
			}
			if failedOver == 0 && wasPrimary && gc.Active() != cl {
				failedOver = p.Now()
			}
			p.Sleep(200 * time.Millisecond)
		}
	})
	env.Run()

	acct := g.Account()
	if acct.State() != georepl.StateHealthy {
		t.Errorf("final state = %v, want healthy", acct.State())
	}
	if !acct.ActiveIsSecondary() {
		t.Error("roles did not swap")
	}
	promotedAt, ok := acct.PromotedAt()
	if !ok {
		t.Fatal("no promotion recorded")
	}
	if want := outageStart + prm.GeoFailoverDetection; promotedAt != want {
		t.Errorf("promoted at %v, want %v", promotedAt, want)
	}
	if failedOver == 0 || failedOver < promotedAt {
		t.Errorf("client failed over at %v, promotion at %v", failedOver, promotedAt)
	}
	// The secondary's partition maps were promoted exactly once.
	if s := g.Secondary().PartitionMgr().Stats(); s.Promotions != 1 {
		t.Errorf("secondary promotions = %d, want 1", s.Promotions)
	}
	// Messages committed on the primary but not yet shipped are the RPO;
	// the queue on the promoted secondary holds everything that
	// replicated plus everything written after promotion.
	lost := acct.TotalLost()
	secN, _ := g.Secondary().Queue.ApproximateCount("que")
	priN, _ := g.pri.Queue.ApproximateCount("que")
	if int(lost)+secN < 100 {
		t.Errorf("lost %d + secondary %d < 100 puts", lost, secN)
	}
	// Failback replayed post-promotion writes into the old primary.
	if g.Reverse() == nil {
		t.Fatal("no reverse stream created")
	}
	if rs := g.Reverse().Stats(); rs.Applied == 0 {
		t.Error("reverse stream applied nothing during failback")
	}
	if priN == 0 {
		t.Error("old primary empty after failback")
	}
}

// TestGeoOverlappingFailoversPanic: a second outage window that opens
// while the first is still being detected asks the account for a move
// its failover cycle forbids. The run stops there, at the second window's
// start, rather than walking the account through a cycle it is not in.
func TestGeoOverlappingFailoversPanic(t *testing.T) {
	env := sim.NewEnv(5)
	g, err := NewGeoAccount(env, geoParams())
	if err != nil {
		t.Fatalf("NewGeoAccount: %v", err)
	}
	second := 10*time.Second + 100*time.Millisecond
	g.ScheduleFailover(10*time.Second, 5*time.Second)
	g.ScheduleFailover(second, 5*time.Second)
	var got any
	func() {
		defer func() { got = recover() }()
		env.Run()
	}()
	if msg := fmt.Sprint(got); !strings.Contains(msg, "cannot move primary-outage -> primary-outage") {
		t.Fatalf("recovered %v, want the second window's outage refused", got)
	}
	if env.Now() != second {
		t.Errorf("run stopped at %v, want %v", env.Now(), second)
	}
}

func TestGeoOutageFailsPrimaryOnly(t *testing.T) {
	env := sim.NewEnv(5)
	g, err := NewGeoAccount(env, geoParams())
	if err != nil {
		t.Fatalf("NewGeoAccount: %v", err)
	}
	g.SetFaults(faults.NewInjector(faults.Plan{
		Outages: []faults.Window{OutageWindow(0, time.Minute)},
	}))
	var priErr, secErr error
	env.Go("probe", func(p *sim.Proc) {
		gc := g.NewGeoClient("probe", model.Small)
		priErr = gc.pri.CreateQueue(p, "que")
		secErr = gc.sec.CreateQueue(p, "que")
	})
	env.Run()
	if !storecommon.IsTransient(priErr) {
		t.Errorf("primary request inside region outage returned %v, want ServerUnavailable", priErr)
	}
	if secErr != nil {
		t.Errorf("secondary request failed during a primary-scoped outage: %v", secErr)
	}
}

// TestGeoRetryBudgetExhaustedByOutage pins the bounded-retry contract
// across a region outage: a policy stops retrying once its attempts are
// spent — it does not spin for the whole outage — and the terminal error
// still carries the outage's fault code.
func TestGeoRetryBudgetExhaustedByOutage(t *testing.T) {
	env := sim.NewEnv(7)
	g, err := NewGeoAccount(env, geoParams())
	if err != nil {
		t.Fatalf("NewGeoAccount: %v", err)
	}
	// A primary-scoped outage longer than any backoff schedule; no
	// failover is scheduled, so the active region never recovers.
	g.SetFaults(faults.NewInjector(faults.Plan{
		Outages: []faults.Window{OutageWindow(0, time.Hour)},
	}))
	pol := retry.Resilient()
	pol.MaxAttempts = 4
	pol.Deadline = time.Hour

	gc := g.NewGeoClient("w", model.Small)
	gc.SetRetryPolicy(pol)
	var (
		opErr  error
		gaveUp time.Duration
	)
	env.Go("w", func(p *sim.Proc) {
		opErr = gc.Active().CreateQueue(p, "que")
		gaveUp = p.Now()
	})
	env.Run()

	if opErr == nil {
		t.Fatal("request inside a permanent outage succeeded")
	}
	if code := storecommon.CodeOf(opErr); code != storecommon.CodeServerUnavailable {
		t.Errorf("terminal error code = %q, want %q (outage fault preserved)", code, storecommon.CodeServerUnavailable)
	}
	if retries := g.pri.Stats().Retries; retries != 3 {
		t.Errorf("spent %d retries, want exactly the 3 the attempt cap allows", retries)
	}
	// Exhausting a 3-retry exponential schedule takes ~1.75s of backoff;
	// giving up within 10s of virtual time proves the client did not ride
	// the full hour-long outage.
	if gaveUp > 10*time.Second {
		t.Errorf("client gave up at %v, should have exhausted its attempts within 10s", gaveUp)
	}
}

// TestGeoAccountDrainsUnderSampler: the replication streams and the
// failover controller stay parked after the last client is done, so a
// station sampler that waited to be the only live process would tick
// forever (azurebench -experiment georepl -telemetry ran out of memory).
// The run must drain within a tick of the work ending.
func TestGeoAccountDrainsUnderSampler(t *testing.T) {
	env := sim.NewEnv(7)
	g, err := NewGeoAccount(env, geoParams())
	if err != nil {
		t.Fatalf("NewGeoAccount: %v", err)
	}
	g.ScheduleFailover(time.Second, time.Second)
	sp := telemetry.NewSampler("geo", 250*time.Millisecond)
	sp.Watch(env, g.Stations)
	gc := g.NewGeoClient("w", model.Small)
	env.Go("w", func(p *sim.Proc) {
		must(t, gc.Active().CreateQueue(p, "jobs"))
		gc.SetRetryPolicy(retry.Resilient())
		for p.Now() < 5*time.Second {
			// A put the outage outlasts may fail; the writer only keeps the
			// account busy.
			if _, err := gc.Active().PutMessage(p, "jobs", payload.Zero(64)); err != nil && !storecommon.IsRetriable(err) {
				t.Error(err)
			}
			p.Sleep(100 * time.Millisecond)
		}
	})
	// Run a second of virtual time at a time, so a run that never drains
	// fails here instead of growing the sampler without bound.
	for env.Pending() > 0 && env.Now() < time.Minute {
		env.RunUntil(env.Now() + time.Second)
	}
	if env.Pending() > 0 {
		t.Fatalf("run did not drain: virtual time %v and counting", env.Now())
	}
	if env.Now() < 5*time.Second || env.Now() > 10*time.Second {
		t.Errorf("run ended at %v, want shortly after the writer's 5s horizon", env.Now())
	}
	if out := new(strings.Builder); sp.WriteJSONL(out) != nil || out.Len() == 0 {
		t.Error("sampler recorded nothing")
	}
}

func TestGeoRegionPrefixesStations(t *testing.T) {
	env := sim.NewEnv(1)
	g, err := NewGeoAccount(env, geoParams())
	if err != nil {
		t.Fatalf("NewGeoAccount: %v", err)
	}
	gc := g.NewGeoClient("w", model.Small)
	env.Go("w", func(p *sim.Proc) {
		must(t, gc.Active().CreateQueue(p, "jobs"))
		// Let the CreateQueue replicate, then read it from the secondary:
		// an RA-GRS read instantiates the secondary's station (replication
		// replays at the engine level and creates none).
		p.Sleep(2 * time.Second)
		if _, err := gc.Secondary().GetMessageCount(p, "jobs"); err != nil {
			t.Errorf("secondary read: %v", err)
		}
	})
	env.Run()
	found := map[string]bool{}
	for _, st := range g.Stations() {
		found[st.Name] = true
	}
	for _, want := range []string{"primary/queue:jobs", "secondary/queue:jobs", "wan:primary->secondary"} {
		if !found[want] {
			t.Errorf("station %q missing from %v", want, keys(found))
		}
	}
	// A default single-region cloud keeps its historical names.
	c := New(sim.NewEnv(1), model.Default())
	if got := c.queueSite("jobs").srv.Name(); got != "queue:jobs" {
		t.Errorf("single-region station named %q, want queue:jobs", got)
	}
}

func keys(m map[string]bool) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
}
