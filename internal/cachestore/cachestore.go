// Package cachestore implements the Windows Azure (AppFabric) Caching
// service of the era — the fourth storage artifact the paper mentions in
// §II ("Azure platform also provides a caching service to temporarily
// hold data in memory across different servers") and defers to future
// work. It is a distributed in-memory cache: one named cache partitioned
// by key hash across a cluster of nodes, each node bounded by a byte
// capacity with LRU eviction, items carrying versions and TTLs.
package cachestore

import (
	"container/list"
	"hash/fnv"
	"sync"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// DefaultTTL is applied when Put receives ttl 0 (AppFabric's default was
// 10 minutes).
const DefaultTTL = 10 * time.Minute

// DefaultCache is the cache a cluster serves; any other name is
// ResourceNotFound.
const DefaultCache = "default"

// Item is a cache entry as returned to clients.
type Item struct {
	Key     string
	Value   payload.Payload
	Version uint64
	Expires time.Time
}

// Cluster is a cache cluster: Nodes() nodes, each with a byte capacity.
type Cluster struct {
	mu      sync.Mutex
	clock   vclock.Clock
	nodes   []*node
	version uint64
}

type node struct {
	capacity int64
	used     int64
	lru      *list.List                 // front = most recent
	items    map[cacheKey]*list.Element // -> *entry
}

type cacheKey struct {
	cache string
	key   string
}

type entry struct {
	k       cacheKey
	value   payload.Payload
	version uint64
	expires time.Time
}

// New builds a cluster of n nodes with capacityBytes each.
func New(clock vclock.Clock, n int, capacityBytes int64) *Cluster {
	if n < 1 {
		n = 1
	}
	c := &Cluster{clock: clock}
	for i := 0; i < n; i++ {
		c.nodes = append(c.nodes, &node{
			capacity: capacityBytes,
			lru:      list.New(),
			items:    map[cacheKey]*list.Element{},
		})
	}
	return c
}

// NodeFor returns the node index owning key (placement information used
// by the simulated cloud to pick the right server station).
func (c *Cluster) NodeFor(cache, key string) int {
	h := fnv.New32a()
	h.Write([]byte(cache))
	h.Write([]byte{0})
	h.Write([]byte(key))
	return int(h.Sum32()) % len(c.nodes)
}

func (c *Cluster) node(cache, key string) (*node, cacheKey, error) {
	if cache != DefaultCache {
		return nil, cacheKey{}, storecommon.Errf(storecommon.CodeResourceNotFound, 404, "cache %q not found", cache)
	}
	k := cacheKey{cache: cache, key: key}
	return c.nodes[c.NodeFor(cache, key)], k, nil
}

// Put stores value under key with the given ttl (0 = DefaultTTL) and
// returns the new version.
func (c *Cluster) Put(cache, key string, value payload.Payload, ttl time.Duration) (uint64, error) {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, k, err := c.node(cache, key)
	if err != nil {
		return 0, err
	}
	if value.Len() > n.capacity {
		return 0, storecommon.Errf(storecommon.CodeRequestBodyTooLarge, 413,
			"item of %d bytes exceeds node capacity %d", value.Len(), n.capacity)
	}
	c.version++
	e := &entry{k: k, value: value, version: c.version, expires: c.clock.Now().Add(ttl)}
	n.insert(e)
	return e.version, nil
}

// insert replaces any existing entry for e.k and evicts LRU items until
// the node fits.
func (n *node) insert(e *entry) {
	if el, ok := n.items[e.k]; ok {
		old := el.Value.(*entry)
		n.used -= old.value.Len()
		n.lru.Remove(el)
		delete(n.items, e.k)
	}
	for n.used+e.value.Len() > n.capacity {
		back := n.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		n.used -= victim.value.Len()
		n.lru.Remove(back)
		delete(n.items, victim.k)
	}
	el := n.lru.PushFront(e)
	n.items[e.k] = el
	n.used += e.value.Len()
}

// Get returns the item under key; ok is false on miss (absent or
// expired). A hit refreshes LRU position.
func (c *Cluster) Get(cache, key string) (Item, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, k, err := c.node(cache, key)
	if err != nil {
		return Item{}, false, err
	}
	e, ok := c.live(n, k)
	if !ok {
		return Item{}, false, nil
	}
	n.lru.MoveToFront(n.items[k])
	return e.item(), true, nil
}

// live fetches a non-expired entry, lazily dropping expired ones.
func (c *Cluster) live(n *node, k cacheKey) (*entry, bool) {
	el, ok := n.items[k]
	if !ok {
		return nil, false
	}
	e := el.Value.(*entry)
	if !e.expires.After(c.clock.Now()) {
		n.used -= e.value.Len()
		n.lru.Remove(el)
		delete(n.items, k)
		return nil, false
	}
	return e, true
}

func (e *entry) item() Item {
	return Item{Key: e.k.key, Value: e.value, Version: e.version, Expires: e.expires}
}
