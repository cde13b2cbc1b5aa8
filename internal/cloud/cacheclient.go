package cloud

import (
	"fmt"
	"time"

	"azurebench/internal/cachestore"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
)

// cacheCluster lazily builds the caching service: the cachestore engine
// plus one simulation station per cache node.
func (c *Cloud) cacheCluster() *cachestore.Cluster {
	if c.cache == nil {
		c.cache = cachestore.New(c.clock, c.prm.CacheNodes, c.prm.CacheNodeCapacity)
		c.cacheSrv = make([]*sim.Resource, c.prm.CacheNodes)
		for i := range c.cacheSrv {
			//azlint:allow hotalloc(station names are formatted once per cache node at lazy cluster construction, not per operation)
			c.cacheSrv[i] = sim.NewResource(c.env, c.station(fmt.Sprintf("cache-node-%d", i)), c.prm.ServerConcurrency)
		}
	}
	return c.cache
}

func (c *Cloud) cacheServer(cache, key string) *sim.Resource {
	cl := c.cacheCluster()
	return c.cacheSrv[cl.NodeFor(cache, key)]
}

// CachePut stores value under key (ttl 0 = the service default).
func (cl *Client) CachePut(p *sim.Proc, cache, key string, value payload.Payload, ttl time.Duration) (uint64, error) {
	var version uint64
	req := cl.newRequest("CachePut", "cache", value.Len()+reqHeader, cl.cloud.cacheServer(cache, key))
	defer cl.cloud.release(req)
	req.mut = true
	req.lat = cl.cloud.prm.CacheLat
	req.apply = func() (time.Duration, int64, error) {
		var err error
		version, err = cl.cloud.cacheCluster().Put(cache, key, value, ttl)
		return cl.cloud.prm.CacheOcc(true, value.Len()), 0, err
	}
	err := cl.do(p, req)
	return version, err
}

// CacheGet fetches key; ok is false on a miss.
func (cl *Client) CacheGet(p *sim.Proc, cache, key string) (cachestore.Item, bool, error) {
	var (
		item cachestore.Item
		ok   bool
	)
	req := cl.newRequest("CacheGet", "cache", reqHeader, cl.cloud.cacheServer(cache, key))
	defer cl.cloud.release(req)
	req.lat = cl.cloud.prm.CacheLat
	req.apply = func() (time.Duration, int64, error) {
		var err error
		item, ok, err = cl.cloud.cacheCluster().Get(cache, key)
		size := int64(0)
		if ok {
			size = item.Value.Len()
		}
		return cl.cloud.prm.CacheOcc(false, size), size, err
	}
	err := cl.do(p, req)
	return item, ok, err
}
