package cloud

import (
	"azurebench/internal/sim"
	"azurebench/internal/tablestore"
)

// CreateTable creates a table. Table management is metadata work on the
// first table server.
func (cl *Client) CreateTable(p *sim.Proc, name string) error {
	req := cl.tableRequest(opCreateTable, reqHeader, name, "")
	defer cl.cloud.release(req)
	return cl.do(p, req)
}

// CreateTableIfNotExists creates the table when absent.
func (cl *Client) CreateTableIfNotExists(p *sim.Proc, name string) (bool, error) {
	req := cl.tableRequest(opCreateTableIfNotExists, reqHeader, name, "")
	defer cl.cloud.release(req)
	err := cl.do(p, req)
	return req.ok, err
}

// InsertEntity adds a row (the paper's AddRow).
func (cl *Client) InsertEntity(p *sim.Proc, tableName string, e *tablestore.Entity) (tablestore.Row, error) {
	req := cl.tableRequest(opInsertEntity, e.Size()+reqHeader, tableName, e.PartitionKey)
	defer cl.cloud.release(req)
	req.ent = e
	err := cl.do(p, req)
	return req.gotEnt, err
}

// GetEntity retrieves one row by primary key (the paper's Query of
// Algorithm 5: a point query on PartitionKey+RowKey).
func (cl *Client) GetEntity(p *sim.Proc, tableName, pk, rk string) (tablestore.Row, error) {
	req := cl.tableRequest(opGetEntity, reqHeader, tableName, pk)
	defer cl.cloud.release(req)
	req.id = rk
	err := cl.do(p, req)
	return req.gotEnt, err
}

// UpdateEntity replaces a row under an ETag condition ("*" for the
// unconditional update the paper benchmarks).
func (cl *Client) UpdateEntity(p *sim.Proc, tableName string, e *tablestore.Entity, ifMatch string) (tablestore.Row, error) {
	req := cl.tableRequest(opUpdateEntity, e.Size()+reqHeader, tableName, e.PartitionKey)
	defer cl.cloud.release(req)
	req.ent, req.ifMatch = e, ifMatch
	err := cl.do(p, req)
	return req.gotEnt, err
}

// DeleteEntity deletes a row under an ETag condition.
func (cl *Client) DeleteEntity(p *sim.Proc, tableName, pk, rk, ifMatch string) error {
	req := cl.tableRequest(opDeleteEntity, reqHeader, tableName, pk)
	defer cl.cloud.release(req)
	req.id, req.ifMatch = rk, ifMatch
	return cl.do(p, req)
}

// QueryEntities runs a filtered scan restricted to one partition (pk) so
// the request can be routed to its partition server; use pk="" for a
// cross-partition scan, which is charged to the table's first server.
func (cl *Client) QueryEntities(p *sim.Proc, tableName, pk, filter string, top int, from tablestore.Continuation) (tablestore.QueryResult, error) {
	req := cl.tableRequest(opQueryEntities, reqHeader+int64(len(filter)), tableName, pk)
	defer cl.cloud.release(req)
	req.filter, req.top, req.from = filter, top, from
	err := cl.do(p, req)
	return req.res, err
}

// tableRequest is newRequest for an operation on partition pk of a table,
// routed through the client's partition map.
func (cl *Client) tableRequest(kind opKind, up int64, table, pk string) *request {
	srv, idx := cl.tableRoute(table, pk)
	req := cl.newRequest(kind, up, srv)
	req.name, req.key, req.serverIdx = table, pk, idx
	return req
}
