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
	req := cl.newRequest(opCachePut, value.Len()+reqHeader)
	defer cl.cloud.release(req)
	req.name, req.key, req.data, req.ttl = cache, key, value, ttl
	err := cl.do(p, req)
	return req.version, err
}

// CacheGet fetches key; ok is false on a miss.
func (cl *Client) CacheGet(p *sim.Proc, cache, key string) (cachestore.Item, bool, error) {
	req := cl.newRequest(opCacheGet, reqHeader)
	defer cl.cloud.release(req)
	req.name, req.key = cache, key
	err := cl.do(p, req)
	return req.item, req.ok, err
}
