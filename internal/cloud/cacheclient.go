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
	req := cl.newRequest(OpCachePut)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.Data, req.TTL = cache, key, value, ttl
	err := cl.do(p, req)
	return req.Version, err
}

// CacheGet fetches key; ok is false on a miss.
func (cl *Client) CacheGet(p *sim.Proc, cache, key string) (cachestore.Item, bool, error) {
	req := cl.newRequest(OpCacheGet)
	defer cl.cloud.release(req)
	req.Name, req.Key = cache, key
	err := cl.do(p, req)
	return req.Item, req.OK, err
}
