package cloud

import (
	"azurebench/internal/sim"
	"azurebench/internal/tablestore"
)

// CreateTable creates a table. Table management is metadata work on the
// first table server.
func (cl *Client) CreateTable(p *sim.Proc, name string) error {
	req := cl.newRequest(opCreateTable, reqHeader)
	defer cl.cloud.release(req)
	req.name = name
	return cl.do(p, req)
}

// CreateTableIfNotExists creates the table when absent.
func (cl *Client) CreateTableIfNotExists(p *sim.Proc, name string) (bool, error) {
	req := cl.newRequest(opCreateTableIfNotExists, reqHeader)
	defer cl.cloud.release(req)
	req.name = name
	err := cl.do(p, req)
	return req.ok, err
}

// InsertEntity adds a row (the paper's AddRow).
func (cl *Client) InsertEntity(p *sim.Proc, tableName string, e *tablestore.Entity) (tablestore.Row, error) {
	req := cl.newRequest(opInsertEntity, e.Size()+reqHeader)
	defer cl.cloud.release(req)
	req.name, req.key, req.ent = tableName, e.PartitionKey, e
	err := cl.do(p, req)
	return req.gotEnt, err
}

// GetEntity retrieves one row by primary key (the paper's Query of
// Algorithm 5: a point query on PartitionKey+RowKey).
func (cl *Client) GetEntity(p *sim.Proc, tableName, pk, rk string) (tablestore.Row, error) {
	req := cl.newRequest(opGetEntity, reqHeader)
	defer cl.cloud.release(req)
	req.name, req.key, req.id = tableName, pk, rk
	err := cl.do(p, req)
	return req.gotEnt, err
}

// UpdateEntity replaces a row under an ETag condition ("*" for the
// unconditional update the paper benchmarks).
func (cl *Client) UpdateEntity(p *sim.Proc, tableName string, e *tablestore.Entity, ifMatch string) (tablestore.Row, error) {
	req := cl.newRequest(opUpdateEntity, e.Size()+reqHeader)
	defer cl.cloud.release(req)
	req.name, req.key, req.ent, req.ifMatch = tableName, e.PartitionKey, e, ifMatch
	err := cl.do(p, req)
	return req.gotEnt, err
}

// DeleteEntity deletes a row under an ETag condition.
func (cl *Client) DeleteEntity(p *sim.Proc, tableName, pk, rk, ifMatch string) error {
	req := cl.newRequest(opDeleteEntity, reqHeader)
	defer cl.cloud.release(req)
	req.name, req.key, req.id, req.ifMatch = tableName, pk, rk, ifMatch
	return cl.do(p, req)
}

// QueryEntities runs a filtered scan restricted to one partition (pk) so
// the request can be routed to its partition server; use pk="" for a
// cross-partition scan, which is charged to the table's first server.
func (cl *Client) QueryEntities(p *sim.Proc, tableName, pk, filter string, top int, from tablestore.Continuation) (tablestore.QueryResult, error) {
	req := cl.newRequest(opQueryEntities, reqHeader+int64(len(filter)))
	defer cl.cloud.release(req)
	req.name, req.key, req.filter, req.top, req.from = tableName, pk, filter, top, from
	err := cl.do(p, req)
	return req.res, err
}
