package cachestore

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

func newCluster() (*Cluster, *vclock.Manual) {
	clk := &vclock.Manual{}
	return New(clk, 4, 1<<20), clk
}

func TestPutGetRoundTrip(t *testing.T) {
	c, _ := newCluster()
	v := payload.String("hello")
	ver, err := c.Put("default", "k", v, 0)
	if err != nil || ver == 0 {
		t.Fatalf("put = %d, %v", ver, err)
	}
	item, ok, err := c.Get("default", "k")
	if err != nil || !ok {
		t.Fatalf("get = %v, %v", ok, err)
	}
	if !payload.Equal(item.Value, v) || item.Version != ver {
		t.Fatalf("item = %+v", item)
	}
}

func TestMissOnAbsentKey(t *testing.T) {
	c, _ := newCluster()
	if _, ok, err := c.Get("default", "nope"); err != nil || ok {
		t.Fatalf("get absent = %v, %v", ok, err)
	}
}

// TestNamedCaches: DefaultCache is served and any other name is not found.
func TestNamedCaches(t *testing.T) {
	c, _ := newCluster()
	if _, err := c.Put("mycache", "k", payload.String("x"), 0); !storecommon.IsNotFound(err) {
		t.Fatalf("put to unknown cache = %v", err)
	}
	if _, _, err := c.Get("mycache", "k"); !storecommon.IsNotFound(err) {
		t.Fatalf("get from unknown cache = %v", err)
	}
	if _, err := c.Put(DefaultCache, "k", payload.String("y"), 0); err != nil {
		t.Fatal(err)
	}
	if b, ok, _ := c.Get(DefaultCache, "k"); !ok || string(b.Value.Materialize()) != "y" {
		t.Fatal("default cache lost its item")
	}
}

func TestTTLExpiry(t *testing.T) {
	c, clk := newCluster()
	if _, err := c.Put("default", "k", payload.String("x"), time.Minute); err != nil {
		t.Fatal(err)
	}
	clk.Advance(59 * time.Second)
	if _, ok, _ := c.Get("default", "k"); !ok {
		t.Fatal("expired too early")
	}
	clk.Advance(2 * time.Second)
	if _, ok, _ := c.Get("default", "k"); ok {
		t.Fatal("item survived its TTL")
	}
}

func TestDefaultTTL(t *testing.T) {
	c, clk := newCluster()
	if _, err := c.Put("default", "k", payload.String("x"), 0); err != nil {
		t.Fatal(err)
	}
	clk.Advance(DefaultTTL + time.Second)
	if _, ok, _ := c.Get("default", "k"); ok {
		t.Fatal("item survived the default TTL")
	}
}

func TestLRUEvictionUnderPressure(t *testing.T) {
	clk := &vclock.Manual{}
	c := New(clk, 1, 10*1024) // one node, 10 KB
	for i := 0; i < 20; i++ {
		if _, err := c.Put("default", fmt.Sprintf("k%02d", i), payload.Zero(1024), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Exactly the capacity's worth of most recent keys survives: the node
	// neither runs over its 10 KB nor evicts more than it must.
	for i := 0; i < 20; i++ {
		_, ok, _ := c.Get("default", fmt.Sprintf("k%02d", i))
		if want := i >= 10; ok != want {
			t.Errorf("k%02d cached = %v, want %v", i, ok, want)
		}
	}
}

func TestLRURefreshOnGet(t *testing.T) {
	clk := &vclock.Manual{}
	c := New(clk, 1, 3*1024)
	for _, k := range []string{"a", "b", "c"} {
		if _, err := c.Put("default", k, payload.Zero(1024), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" becomes LRU, then insert "d".
	if _, ok, _ := c.Get("default", "a"); !ok {
		t.Fatal("get a failed")
	}
	if _, err := c.Put("default", "d", payload.Zero(1024), 0); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get("default", "a"); !ok {
		t.Fatal("recently used key evicted")
	}
	if _, ok, _ := c.Get("default", "b"); ok {
		t.Fatal("LRU key survived")
	}
}

func TestOversizedItemRejected(t *testing.T) {
	c, _ := newCluster()
	if _, err := c.Put("default", "big", payload.Zero(2<<20), 0); storecommon.CodeOf(err) != storecommon.CodeRequestBodyTooLarge {
		t.Fatalf("oversized = %v", err)
	}
}

// TestVersionedPut: every Put mints a fresh version, higher than any the
// cluster handed out before, and Get reports the version of the value it
// returns.
func TestVersionedPut(t *testing.T) {
	c, _ := newCluster()
	v1, _ := c.Put("default", "k", payload.String("a"), 0)
	v2, err := c.Put("default", "k", payload.String("b"), 0)
	if err != nil || v2 <= v1 {
		t.Fatalf("overwrite version = %d after %d, %v", v2, v1, err)
	}
	if v3, _ := c.Put("default", "other", payload.String("c"), 0); v3 <= v2 {
		t.Fatalf("version %d for another key not above %d", v3, v2)
	}
	item, ok, _ := c.Get("default", "k")
	if !ok || item.Version != v2 || string(item.Value.Materialize()) != "b" {
		t.Fatalf("get after overwrite = %+v, %v; want version %d of \"b\"", item, ok, v2)
	}
}

func TestKeysSpreadAcrossNodes(t *testing.T) {
	c, _ := newCluster()
	seen := map[int]bool{}
	for i := 0; i < 64; i++ {
		seen[c.NodeFor("default", fmt.Sprintf("key-%d", i))] = true
	}
	if len(seen) < 3 {
		t.Fatalf("keys landed on only %d of 4 nodes", len(seen))
	}
}

func TestConcurrentAccess(t *testing.T) {
	c, _ := newCluster()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("g%d-k%d", g, i%10)
				if _, err := c.Put("default", key, payload.Zero(128), 0); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := c.Get("default", key); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
