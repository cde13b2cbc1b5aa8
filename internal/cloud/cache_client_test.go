package cloud

import (
	"testing"
	"time"

	"azurebench/internal/cachestore"
	"azurebench/internal/model"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
)

func TestCacheClientRoundTrip(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, model.Default())
	cl := c.NewClient("vm0", model.Small)
	env.Go("main", func(p *sim.Proc) {
		v := payload.Synthetic(1, 4096)
		ver, err := cl.CachePut(p, cachestore.DefaultCache, "config", v, time.Hour)
		if err != nil || ver == 0 {
			t.Errorf("put = %d, %v", ver, err)
			return
		}
		item, ok, err := cl.CacheGet(p, cachestore.DefaultCache, "config")
		if err != nil || !ok || !payload.Equal(item.Value, v) {
			t.Errorf("get = %v, %v", ok, err)
			return
		}
	})
	env.Run()
	if env.Now() == 0 {
		t.Fatal("cache ops consumed no virtual time")
	}
}

func TestCacheOpsAreFasterThanBlobOps(t *testing.T) {
	env := sim.NewEnv(1)
	c := New(env, model.Default())
	cl := c.NewClient("vm0", model.Small)
	var cacheT, blobT time.Duration
	env.Go("main", func(p *sim.Proc) {
		if err := cl.CreateContainer(p, "bench"); err != nil {
			t.Error(err)
			return
		}
		data := payload.Synthetic(1, 64<<10)
		if err := cl.UploadBlockBlob(p, "bench", "hot", data); err != nil {
			t.Error(err)
			return
		}
		if _, err := cl.CachePut(p, "default", "hot", data, time.Hour); err != nil {
			t.Error(err)
			return
		}
		t0 := p.Now()
		if _, err := cl.Download(p, "bench", "hot"); err != nil {
			t.Error(err)
			return
		}
		blobT = p.Now() - t0
		t0 = p.Now()
		if _, ok, err := cl.CacheGet(p, "default", "hot"); err != nil || !ok {
			t.Errorf("cache get = %v, %v", ok, err)
			return
		}
		cacheT = p.Now() - t0
	})
	env.Run()
	if cacheT >= blobT {
		t.Fatalf("cache read (%v) not faster than blob read (%v)", cacheT, blobT)
	}
}
