package cloud

import (
	"azurebench/internal/sim"
	"azurebench/internal/tablestore"
)

// CreateTable creates a table. Table management is metadata work on the
// first table server.
func (cl *Client) CreateTable(p *sim.Proc, name string) error {
	req := cl.newRequest(OpCreateTable)
	defer cl.cloud.release(req)
	req.Name = name
	return cl.do(p, req)
}

// CreateTableIfNotExists creates the table when absent.
func (cl *Client) CreateTableIfNotExists(p *sim.Proc, name string) (bool, error) {
	req := cl.newRequest(OpCreateTableIfNotExists)
	defer cl.cloud.release(req)
	req.Name = name
	err := cl.do(p, req)
	return req.OK, err
}

// InsertEntity adds a row (the paper's AddRow).
func (cl *Client) InsertEntity(p *sim.Proc, tableName string, e *tablestore.Entity) (tablestore.Row, error) {
	req := cl.newRequest(OpInsertEntity)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.Ent = tableName, e.PartitionKey, e
	err := cl.do(p, req)
	return req.Row, err
}

// GetEntity retrieves one row by primary key (the paper's Query of
// Algorithm 5: a point query on PartitionKey+RowKey).
func (cl *Client) GetEntity(p *sim.Proc, tableName, pk, rk string) (tablestore.Row, error) {
	req := cl.newRequest(OpGetEntity)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.ID = tableName, pk, rk
	err := cl.do(p, req)
	return req.Row, err
}

// UpdateEntity replaces a row under an ETag condition ("*" for the
// unconditional update the paper benchmarks).
func (cl *Client) UpdateEntity(p *sim.Proc, tableName string, e *tablestore.Entity, ifMatch string) (tablestore.Row, error) {
	req := cl.newRequest(OpUpdateEntity)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.Ent, req.IfMatch = tableName, e.PartitionKey, e, ifMatch
	err := cl.do(p, req)
	return req.Row, err
}

// DeleteEntity deletes a row under an ETag condition.
func (cl *Client) DeleteEntity(p *sim.Proc, tableName, pk, rk, ifMatch string) error {
	req := cl.newRequest(OpDeleteEntity)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.ID, req.IfMatch = tableName, pk, rk, ifMatch
	return cl.do(p, req)
}

// QueryEntities runs a filtered scan restricted to one partition (pk) so
// the request can be routed to its partition server; use pk="" for a
// cross-partition scan, which is charged to the table's first server.
func (cl *Client) QueryEntities(p *sim.Proc, tableName, pk, filter string, top int, from tablestore.Continuation) (tablestore.QueryResult, error) {
	req := cl.newRequest(OpQueryEntities)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.Filter, req.Top, req.From = tableName, pk, filter, top, from
	err := cl.do(p, req)
	return req.Res, err
}
