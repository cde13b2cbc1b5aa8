package cloud

import (
	"time"

	"azurebench/internal/model"
	"azurebench/internal/sim"
	"azurebench/internal/tablestore"
)

// CreateTable creates a table. Table management is metadata work on the
// first table server.
func (cl *Client) CreateTable(p *sim.Proc, name string) error {
	srv, idx := cl.tableRoute(name, "")
	req := cl.newRequest("CreateTable", "table", reqHeader, srv)
	defer cl.cloud.release(req)
	req.mut = true
	req.serverIdx = idx
	req.geoKey = name
	req.apply = func() (time.Duration, int64, error) {
		return cl.cloud.prm.ContainerOpOcc, 0, cl.cloud.Table.CreateTable(name)
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error { return dst.Table.CreateTable(name) }
	}
	return cl.do(p, req)
}

// CreateTableIfNotExists creates the table when absent.
func (cl *Client) CreateTableIfNotExists(p *sim.Proc, name string) (bool, error) {
	created := false
	srv, idx := cl.tableRoute(name, "")
	req := cl.newRequest("CreateTableIfNotExists", "table", reqHeader, srv)
	defer cl.cloud.release(req)
	req.mut = true
	req.serverIdx = idx
	req.geoKey = name
	req.apply = func() (time.Duration, int64, error) {
		var err error
		created, err = cl.cloud.Table.CreateTableIfNotExists(name)
		return cl.cloud.prm.ContainerOpOcc, 0, err
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error {
			_, err := dst.Table.CreateTableIfNotExists(name)
			return err
		}
	}
	err := cl.do(p, req)
	return created, err
}

// InsertEntity adds a row (the paper's AddRow).
func (cl *Client) InsertEntity(p *sim.Proc, tableName string, e *tablestore.Entity) (tablestore.Row, error) {
	srv, idx := cl.tableRoute(tableName, e.PartitionKey)
	req := cl.newRequest("InsertEntity", "table", e.Size()+reqHeader, srv)
	defer cl.cloud.release(req)
	req.mut = true
	req.serverIdx = idx
	req.table = tableName
	req.part = e.PartitionKey
	req.repl = cl.cloud.prm.ReplCost()
	req.lat = cl.cloud.prm.TableLat(model.TInsert)
	req.geoKey = tableName
	req.kind = opInsertEntity
	req.ent = e
	if cl.cloud.geo != nil {
		// The secondary assigns its own ETag when the record replays.
		req.mirror = mirrorEntity(e, func(dst *Cloud, c *tablestore.Entity) error {
			_, err := dst.Table.Insert(tableName, c)
			return err
		})
	}
	err := cl.do(p, req)
	return req.gotEnt, err
}

// GetEntity retrieves one row by primary key (the paper's Query of
// Algorithm 5: a point query on PartitionKey+RowKey).
func (cl *Client) GetEntity(p *sim.Proc, tableName, pk, rk string) (tablestore.Row, error) {
	srv, idx := cl.tableRoute(tableName, pk)
	req := cl.newRequest("GetEntity", "table", reqHeader, srv)
	defer cl.cloud.release(req)
	req.serverIdx = idx
	req.table = tableName
	req.part = pk
	req.lat = cl.cloud.prm.TableLat(model.TQuery)
	req.kind = opGetEntity
	req.rowKey = rk
	err := cl.do(p, req)
	return req.gotEnt, err
}

// UpdateEntity replaces a row under an ETag condition ("*" for the
// unconditional update the paper benchmarks).
func (cl *Client) UpdateEntity(p *sim.Proc, tableName string, e *tablestore.Entity, ifMatch string) (tablestore.Row, error) {
	srv, idx := cl.tableRoute(tableName, e.PartitionKey)
	req := cl.newRequest("UpdateEntity", "table", e.Size()+reqHeader, srv)
	defer cl.cloud.release(req)
	req.mut = true
	req.serverIdx = idx
	req.table = tableName
	req.part = e.PartitionKey
	req.repl = cl.cloud.prm.ReplCost()
	req.lat = cl.cloud.prm.TableLat(model.TUpdate)
	req.geoKey = tableName
	req.kind = opUpdateEntity
	req.ent = e
	req.ifMatch = ifMatch
	if cl.cloud.geo != nil {
		// ETag preconditions were already checked on the primary; the
		// replay applies unconditionally ("*").
		req.mirror = mirrorEntity(e, func(dst *Cloud, c *tablestore.Entity) error {
			_, err := dst.Table.Replace(tableName, c, "*")
			return err
		})
	}
	err := cl.do(p, req)
	return req.gotEnt, err
}

// DeleteEntity deletes a row under an ETag condition.
func (cl *Client) DeleteEntity(p *sim.Proc, tableName, pk, rk, ifMatch string) error {
	srv, idx := cl.tableRoute(tableName, pk)
	req := cl.newRequest("DeleteEntity", "table", reqHeader, srv)
	defer cl.cloud.release(req)
	req.mut = true
	req.serverIdx = idx
	req.table = tableName
	req.part = pk
	req.repl = cl.cloud.prm.ReplCost()
	req.lat = cl.cloud.prm.TableLat(model.TDelete)
	req.geoKey = tableName
	req.kind = opDeleteEntity
	req.rowKey = rk
	req.ifMatch = ifMatch
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error { return dst.Table.Delete(tableName, pk, rk, "*") }
	}
	return cl.do(p, req)
}

// QueryEntities runs a filtered scan restricted to one partition (pk) so
// the request can be routed to its partition server; use pk="" for a
// cross-partition scan, which is charged to the table's first server.
func (cl *Client) QueryEntities(p *sim.Proc, tableName, pk, filter string, top int, from tablestore.Continuation) (tablestore.QueryResult, error) {
	var res tablestore.QueryResult
	srv, idx := cl.tableRoute(tableName, pk)
	req := cl.newRequest("QueryEntities", "table", reqHeader+int64(len(filter)), srv)
	defer cl.cloud.release(req)
	req.serverIdx = idx
	req.table = tableName
	req.part = pk
	req.lat = cl.cloud.prm.TableLat(model.TQuery)
	req.apply = func() (time.Duration, int64, error) {
		var err error
		res, err = cl.cloud.Table.Query(tableName, filter, top, from)
		var size int64
		for _, e := range res.Entities {
			size += e.Size()
		}
		return cl.cloud.prm.TableOcc(model.TQuery, size), size, err
	}
	err := cl.do(p, req)
	return res, err
}

// mirrorEntity builds a replication closure over a commit-time snapshot
// of e, so later caller-side mutation of the entity cannot leak into the
// replayed record.
func mirrorEntity(e *tablestore.Entity, replay func(dst *Cloud, c *tablestore.Entity) error) func(*Cloud) error {
	c := e.Clone()
	return func(dst *Cloud) error { return replay(dst, c) }
}
