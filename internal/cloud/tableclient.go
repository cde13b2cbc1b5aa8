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
	return cl.do(p, &request{
		op:        "CreateTable",
		mut:       true,
		service:   "table",
		up:        reqHeader,
		server:    srv,
		serverIdx: idx,
		geoKey:    name,
		mirror:    func(dst *Cloud) error { return dst.Table.CreateTable(name) },
		apply: func() (time.Duration, int64, error) {
			return cl.cloud.prm.ContainerOpOcc, 0, cl.cloud.Table.CreateTable(name)
		},
	})
}

// CreateTableIfNotExists creates the table when absent.
func (cl *Client) CreateTableIfNotExists(p *sim.Proc, name string) (bool, error) {
	created := false
	srv, idx := cl.tableRoute(name, "")
	err := cl.do(p, &request{
		op:        "CreateTableIfNotExists",
		mut:       true,
		service:   "table",
		up:        reqHeader,
		server:    srv,
		serverIdx: idx,
		geoKey:    name,
		mirror: func(dst *Cloud) error {
			_, err := dst.Table.CreateTableIfNotExists(name)
			return err
		},
		apply: func() (time.Duration, int64, error) {
			var err error
			created, err = cl.cloud.Table.CreateTableIfNotExists(name)
			return cl.cloud.prm.ContainerOpOcc, 0, err
		},
	})
	return created, err
}

// DeleteTable removes a table.
func (cl *Client) DeleteTable(p *sim.Proc, name string) error {
	srv, idx := cl.tableRoute(name, "")
	return cl.do(p, &request{
		op:        "DeleteTable",
		mut:       true,
		service:   "table",
		up:        reqHeader,
		server:    srv,
		serverIdx: idx,
		geoKey:    name,
		mirror:    func(dst *Cloud) error { return dst.Table.DeleteTable(name) },
		apply: func() (time.Duration, int64, error) {
			return cl.cloud.prm.ContainerOpOcc, 0, cl.cloud.Table.DeleteTable(name)
		},
	})
}

// InsertEntity adds a row (the paper's AddRow).
func (cl *Client) InsertEntity(p *sim.Proc, tableName string, e *tablestore.Entity) (*tablestore.Entity, error) {
	var stored *tablestore.Entity
	size := e.Size()
	srv, idx := cl.tableRoute(tableName, e.PartitionKey)
	err := cl.do(p, &request{
		op:        "InsertEntity",
		mut:       true,
		service:   "table",
		up:        size + reqHeader,
		server:    srv,
		serverIdx: idx,
		table:     tableName,
		part:      e.PartitionKey,
		repl:      cl.cloud.prm.ReplCost(),
		lat:       cl.cloud.prm.TableLat(model.TInsert),
		geoKey:    tableName,
		// The clone snapshots the entity at commit time; the secondary
		// assigns its own ETag when the record replays.
		mirror: mirrorEntity(e, func(dst *Cloud, c *tablestore.Entity) error {
			_, err := dst.Table.Insert(tableName, c)
			return err
		}),
		apply: func() (time.Duration, int64, error) {
			var err error
			stored, err = cl.cloud.Table.Insert(tableName, e)
			return cl.cloud.prm.TableOcc(model.TInsert, size), 0, err
		},
	})
	return stored, err
}

// GetEntity retrieves one row by primary key (the paper's Query of
// Algorithm 5: a point query on PartitionKey+RowKey).
func (cl *Client) GetEntity(p *sim.Proc, tableName, pk, rk string) (*tablestore.Entity, error) {
	srv, idx := cl.tableRoute(tableName, pk)
	req := request{
		op:        "GetEntity",
		service:   "table",
		up:        reqHeader,
		server:    srv,
		serverIdx: idx,
		table:     tableName,
		part:      pk,
		lat:       cl.cloud.prm.TableLat(model.TQuery),
		kind:      opGetEntity,
		rowKey:    rk,
	}
	err := cl.do(p, &req)
	return req.gotEnt, err
}

// UpdateEntity replaces a row under an ETag condition ("*" for the
// unconditional update the paper benchmarks).
func (cl *Client) UpdateEntity(p *sim.Proc, tableName string, e *tablestore.Entity, ifMatch string) (*tablestore.Entity, error) {
	srv, idx := cl.tableRoute(tableName, e.PartitionKey)
	req := request{
		op:        "UpdateEntity",
		mut:       true,
		service:   "table",
		up:        e.Size() + reqHeader,
		server:    srv,
		serverIdx: idx,
		table:     tableName,
		part:      e.PartitionKey,
		repl:      cl.cloud.prm.ReplCost(),
		lat:       cl.cloud.prm.TableLat(model.TUpdate),
		geoKey:    tableName,
		kind:      opUpdateEntity,
		ent:       e,
		ifMatch:   ifMatch,
	}
	if cl.cloud.geo != nil {
		// ETag preconditions were already checked on the primary; the
		// replay applies unconditionally ("*").
		req.mirror = mirrorEntity(e, func(dst *Cloud, c *tablestore.Entity) error {
			_, err := dst.Table.Replace(tableName, c, "*")
			return err
		})
	}
	err := cl.do(p, &req)
	return req.gotEnt, err
}

// MergeEntity merges properties into a row under an ETag condition.
func (cl *Client) MergeEntity(p *sim.Proc, tableName string, e *tablestore.Entity, ifMatch string) (*tablestore.Entity, error) {
	var stored *tablestore.Entity
	size := e.Size()
	srv, idx := cl.tableRoute(tableName, e.PartitionKey)
	err := cl.do(p, &request{
		op:        "MergeEntity",
		mut:       true,
		service:   "table",
		up:        size + reqHeader,
		server:    srv,
		serverIdx: idx,
		table:     tableName,
		part:      e.PartitionKey,
		repl:      cl.cloud.prm.ReplCost(),
		lat:       cl.cloud.prm.TableLat(model.TUpdate),
		geoKey:    tableName,
		mirror: mirrorEntity(e, func(dst *Cloud, c *tablestore.Entity) error {
			_, err := dst.Table.Merge(tableName, c, "*")
			return err
		}),
		apply: func() (time.Duration, int64, error) {
			var err error
			stored, err = cl.cloud.Table.Merge(tableName, e, ifMatch)
			return cl.cloud.prm.TableOcc(model.TUpdate, size), 0, err
		},
	})
	return stored, err
}

// DeleteEntity deletes a row under an ETag condition.
func (cl *Client) DeleteEntity(p *sim.Proc, tableName, pk, rk, ifMatch string) error {
	srv, idx := cl.tableRoute(tableName, pk)
	return cl.do(p, &request{
		op:        "DeleteEntity",
		mut:       true,
		service:   "table",
		up:        reqHeader,
		server:    srv,
		serverIdx: idx,
		table:     tableName,
		part:      pk,
		repl:      cl.cloud.prm.ReplCost(),
		lat:       cl.cloud.prm.TableLat(model.TDelete),
		geoKey:    tableName,
		mirror:    func(dst *Cloud) error { return dst.Table.Delete(tableName, pk, rk, "*") },
		apply: func() (time.Duration, int64, error) {
			return cl.cloud.prm.TableOcc(model.TDelete, 0), 0,
				cl.cloud.Table.Delete(tableName, pk, rk, ifMatch)
		},
	})
}

// QueryEntities runs a filtered scan restricted to one partition (pk) so
// the request can be routed to its partition server; use pk="" for a
// cross-partition scan, which is charged to the table's first server.
func (cl *Client) QueryEntities(p *sim.Proc, tableName, pk, filter string, top int, from tablestore.Continuation) (tablestore.QueryResult, error) {
	var res tablestore.QueryResult
	srv, idx := cl.tableRoute(tableName, pk)
	err := cl.do(p, &request{
		op:        "QueryEntities",
		service:   "table",
		up:        reqHeader + int64(len(filter)),
		server:    srv,
		serverIdx: idx,
		table:     tableName,
		part:      pk,
		lat:       cl.cloud.prm.TableLat(model.TQuery),
		apply: func() (time.Duration, int64, error) {
			var err error
			res, err = cl.cloud.Table.Query(tableName, filter, top, from)
			var size int64
			for _, e := range res.Entities {
				size += e.Size()
			}
			return cl.cloud.prm.TableOcc(model.TQuery, size), size, err
		},
	})
	return res, err
}

// ExecuteBatch runs an entity-group transaction; all operations hit the
// partition's server as one request.
func (cl *Client) ExecuteBatch(p *sim.Proc, tableName string, ops []tablestore.BatchOp) (int, error) {
	if len(ops) == 0 {
		return -1, nil
	}
	pk := ops[0].Entity.PartitionKey
	var up, occTotal = int64(reqHeader), time.Duration(0)
	for _, op := range ops {
		size := op.Entity.Size()
		up += size
		switch op.Kind {
		case tablestore.BatchInsert, tablestore.BatchInsertOrReplace, tablestore.BatchInsertOrMerge:
			occTotal += cl.cloud.prm.TableOcc(model.TInsert, size)
		case tablestore.BatchReplace, tablestore.BatchMerge:
			occTotal += cl.cloud.prm.TableOcc(model.TUpdate, size)
		case tablestore.BatchDelete:
			occTotal += cl.cloud.prm.TableOcc(model.TDelete, 0)
		}
	}
	failed := -1
	srv, idx := cl.tableRoute(tableName, pk)
	err := cl.do(p, &request{
		op:        "ExecuteBatch",
		mut:       true,
		service:   "table",
		up:        up,
		server:    srv,
		serverIdx: idx,
		table:     tableName,
		part:      pk,
		repl:      time.Duration(len(ops)) * cl.cloud.prm.ReplCost(),
		txCost:    float64(len(ops)),
		lat:       cl.cloud.prm.TableLat(model.TInsert),
		geoKey:    tableName,
		mirror:    mirrorBatch(tableName, ops),
		apply: func() (time.Duration, int64, error) {
			var err error
			failed, err = cl.cloud.Table.ExecuteBatch(tableName, ops)
			return occTotal, 0, err
		},
	})
	return failed, err
}

// mirrorEntity builds a replication closure over a commit-time snapshot
// of e, so later caller-side mutation of the entity cannot leak into the
// replayed record.
func mirrorEntity(e *tablestore.Entity, replay func(dst *Cloud, c *tablestore.Entity) error) func(*Cloud) error {
	c := e.Clone()
	return func(dst *Cloud) error { return replay(dst, c) }
}

// mirrorBatch snapshots an entity-group transaction for replay on the
// secondary: entities are cloned and ETag conditions relaxed to "*" (the
// primary already enforced them).
func mirrorBatch(tableName string, ops []tablestore.BatchOp) func(*Cloud) error {
	replayOps := make([]tablestore.BatchOp, len(ops))
	for i, op := range ops {
		replayOps[i] = tablestore.BatchOp{Kind: op.Kind, Entity: op.Entity.Clone()}
		if op.IfMatch != "" {
			replayOps[i].IfMatch = "*"
		}
	}
	return func(dst *Cloud) error {
		_, err := dst.Table.ExecuteBatch(tableName, replayOps)
		return err
	}
}
