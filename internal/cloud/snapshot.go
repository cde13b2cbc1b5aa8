package cloud

import (
	"fmt"

	"azurebench/internal/sim"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
)

// RegisterSnapshot registers every stateful subsystem of this cloud
// with reg under prefix ("" for a single-region account; the georepl
// pair registers "primary/" and "secondary/"). Registration order is
// fixed, so two clouds built from the same config register the same
// section sequence — the property the byte-compare in replay-verified
// restore rests on. The simulation environment itself is shared between
// paired clouds and is registered once by the caller.
func (c *Cloud) RegisterSnapshot(reg *snap.Registry, prefix string) {
	reg.Register(snap.Wrap(prefix+"cloud/state", c.saveState, c.loadState))
	reg.Register(snap.Wrap(prefix+"engine/blob", c.Blob.Save, c.Blob.Load))
	reg.Register(snap.Wrap(prefix+"engine/queue", c.Queue.Save, c.Queue.Load))
	reg.Register(snap.Wrap(prefix+"engine/table", c.Table.Save, c.Table.Load))
	reg.Register(snap.Wrap(prefix+"partitionmgr/master", c.pmgr.Save, c.pmgr.Load))
	if c.faults != nil {
		reg.Register(snap.Wrap(prefix+"faults/injector", c.faults.Save, c.faults.Load))
	}
	if c.ids != nil {
		reg.Register(snap.Wrap(prefix+"trace/idgen", c.ids.Save, c.ids.Load))
	}
	if c.geo != nil {
		reg.Register(snap.Wrap(prefix+"georepl/stream", c.geo.Save, c.geo.Load))
	}
}

// RegisterSnapshot registers both regions of a geo-replicated account
// plus the account-level failover machinery. Each region's stream
// registers through its own cloud (the primary carries the forward
// stream; the secondary carries the reverse stream once a failover has
// created it), so registration at capture time and at the same virtual
// time during a replay-verified restore produces the same section list
// on both sides of the byte compare.
func (g *GeoAccount) RegisterSnapshot(reg *snap.Registry) {
	g.pri.RegisterSnapshot(reg, RegionPrimary+"/")
	g.sec.RegisterSnapshot(reg, RegionSecondary+"/")
	reg.Register(snap.Wrap("georepl/account", g.account.Save, g.account.Load))
	if g.ids != nil {
		reg.Register(snap.Wrap("georepl/idgen", g.ids.Save, g.ids.Load))
	}
}

// saveState appends the cloud-level mutable state: request counters,
// the account-wide throttles, the lazily built limiter pools, and every
// partition-server station (occupancy integrals plus the blob replica
// round-robin cursors that decide which replica serves the next read).
func (c *Cloud) saveState(w *snap.Writer) {
	w.U64(c.stats.Ops)
	w.U64(c.stats.BusyRejects)
	w.I64(c.stats.BytesIn)
	w.I64(c.stats.BytesOut)
	for _, n := range c.stats.ReplicaReads {
		w.U64(n)
	}
	w.U64(c.stats.FaultTimeouts)
	w.U64(c.stats.FaultInternals)
	w.U64(c.stats.FaultResets)
	w.U64(c.stats.FaultOutages)
	w.U64(c.stats.Retries)

	c.accountTx.Save(w)
	c.accountBW.Save(w)
	savePool(w, c.queueTB)
	savePool(w, c.tableTB)

	blobKeys := snap.SortedKeys(c.blobSrv)
	w.Int(len(blobKeys))
	for _, k := range blobKeys {
		rs := c.blobSrv[k]
		w.String(k)
		w.Int(rs.rr)
		w.Int(len(rs.replicas))
		for _, r := range rs.replicas {
			r.Save(w)
		}
	}

	queueKeys := snap.SortedKeys(c.queueSrv)
	w.Int(len(queueKeys))
	for _, k := range queueKeys {
		w.String(k)
		c.queueSrv[k].srv.Save(w)
	}

	w.Int(len(c.tableSrv))
	for _, r := range c.tableSrv {
		r.Save(w)
	}
}

// loadState restores cloud-level state saved by saveState into a fresh
// cloud built from the same parameters, recreating the lazily built
// stations and limiter pools.
func (c *Cloud) loadState(r *snap.Reader) error {
	c.stats.Ops = r.U64()
	c.stats.BusyRejects = r.U64()
	c.stats.BytesIn = r.I64()
	c.stats.BytesOut = r.I64()
	for i := range c.stats.ReplicaReads {
		c.stats.ReplicaReads[i] = r.U64()
	}
	c.stats.FaultTimeouts = r.U64()
	c.stats.FaultInternals = r.U64()
	c.stats.FaultResets = r.U64()
	c.stats.FaultOutages = r.U64()
	c.stats.Retries = r.U64()

	if err := c.accountTx.Load(r); err != nil {
		return err
	}
	if err := c.accountBW.Load(r); err != nil {
		return err
	}
	var err error
	if c.queueTB, err = loadPool(r, c.queueTB, c.prm.QueueOpsPerSec, c.prm.QueueBurst); err != nil {
		return err
	}
	if c.tableTB, err = loadPool(r, c.tableTB, c.prm.PartitionOpsPerSec, c.prm.PartitionBurst); err != nil {
		return err
	}

	nb := r.Count()
	c.blobSrv = make(map[string]*replicaSet, nb)
	for i := 0; i < nb; i++ {
		key := r.String()
		rr := r.Int()
		nrep := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		if nrep != c.prm.Replicas {
			return fmt.Errorf("cloud: blob partition %q has %d replicas in snapshot, params say %d", key, nrep, c.prm.Replicas)
		}
		rs := &replicaSet{rr: rr, replicas: make([]*sim.Resource, nrep)}
		for j := range rs.replicas {
			rs.replicas[j] = sim.NewResource(c.env, c.station(fmt.Sprintf("blob:%s/r%d", key, j)), c.prm.ServerConcurrency)
			if err := rs.replicas[j].Load(r); err != nil {
				return err
			}
		}
		c.blobSrv[key] = rs
	}

	// The sites are rebuilt, so no handle outlives the pools it was taken
	// on; a request in flight holds one, which At re-resolves.
	nq := r.Count()
	c.queueSrv = make(map[string]*queueSite, nq)
	c.partSites = map[string]map[string]*partSite{}
	for i := 0; i < nq; i++ {
		name := r.String()
		if err := r.Err(); err != nil {
			return err
		}
		if err := c.queueSite(name).srv.Load(r); err != nil {
			return err
		}
	}

	nt := r.Count()
	c.tableSrv = nil
	for i := 0; i < nt; i++ {
		name := fmt.Sprintf("table-srv-%d", i)
		srv := sim.NewResource(c.env, c.station(name), c.prm.ServerConcurrency)
		if err := srv.Load(r); err != nil {
			return err
		}
		c.tableSrv = append(c.tableSrv, srv)
	}
	return r.Err()
}

// savePool writes a lazily created limiter pool behind a presence flag.
func savePool(w *snap.Writer, p *storecommon.LimiterPool) {
	if p == nil {
		w.Bool(false)
		return
	}
	w.Bool(true)
	p.Save(w)
}

// loadPool restores a pool written by savePool, creating the pool when
// the snapshot has one and the live cloud has not touched it yet.
func loadPool(r *snap.Reader, live *storecommon.LimiterPool, rate, burst float64) (*storecommon.LimiterPool, error) {
	present := r.Bool()
	if err := r.Err(); err != nil {
		return live, err
	}
	if !present {
		return nil, nil
	}
	if live == nil {
		live = storecommon.NewLimiterPool(rate, burst)
	}
	return live, live.Load(r)
}
