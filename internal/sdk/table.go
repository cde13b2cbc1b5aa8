package sdk

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"

	"azurebench/internal/odata"
	"azurebench/internal/tablestore"
)

// TableClient talks to the table service.
type TableClient struct {
	c *Client
}

// Create creates a table.
func (t *TableClient) Create(name string) error {
	body, _ := json.Marshal(map[string]string{"TableName": name})
	_, err := t.c.do(request{op: "Create", method: http.MethodPost, path: "/table/Tables", body: body})
	return err
}

// Delete deletes a table.
func (t *TableClient) Delete(name string) error {
	_, err := t.c.do(request{op: "Delete", method: http.MethodDelete, path: "/table/Tables('" + esc(name) + "')"})
	return err
}

// List lists table names.
func (t *TableClient) List() ([]string, error) {
	resp, err := t.c.do(request{op: "List", method: http.MethodGet, path: "/table/Tables"})
	if err != nil {
		return nil, err
	}
	var out struct {
		Value []struct {
			TableName string `json:"TableName"`
		} `json:"value"`
	}
	if err := json.Unmarshal(resp.body, &out); err != nil {
		return nil, fmt.Errorf("sdk: bad table list: %w", err)
	}
	var names []string
	for _, v := range out.Value {
		names = append(names, v.TableName)
	}
	return names, nil
}

// entityPath is /table/{table}(PartitionKey='{pk}',RowKey='{rk}'), the
// names escaped and the keys in the OData key syntax (quotes double).
func entityPath(table, pk, rk string) string {
	var stack [128]byte
	b := append(stack[:0], "/table/"...)
	b = appendEsc(b, table, false)
	b = append(b, "(PartitionKey='"...)
	b = appendEsc(b, pk, true)
	b = append(b, "',RowKey='"...)
	b = appendEsc(b, rk, true)
	b = append(b, "')"...)
	return string(b)
}

// Insert adds an entity; the stored ETag is returned.
func (t *TableClient) Insert(table string, e *tablestore.Entity) (string, error) {
	body, err := odata.EncodeEntity(e)
	if err != nil {
		return "", err
	}
	resp, err := t.c.do(request{op: "Insert", method: http.MethodPost, path: "/table/" + esc(table), body: body})
	if err != nil {
		return "", err
	}
	return resp.headers.Get(hETag), nil
}

// Get retrieves an entity by key.
func (t *TableClient) Get(table, pk, rk string) (*tablestore.Entity, error) {
	resp, err := t.c.do(request{op: "Get", method: http.MethodGet, path: entityPath(table, pk, rk)})
	if err != nil {
		return nil, err
	}
	e, err := odata.DecodeEntity(resp.body)
	if err != nil {
		return nil, err
	}
	if tag := resp.headers.Get(hETag); tag != "" {
		e.ETag = tag
	}
	return e, nil
}

// Replace replaces an entity under an ETag condition ("*" for
// unconditional; "" upserts).
func (t *TableClient) Replace(table string, e *tablestore.Entity, ifMatch string) (string, error) {
	return t.write(http.MethodPut, table, e, ifMatch)
}

// Merge merges an entity's properties under an ETag condition.
func (t *TableClient) Merge(table string, e *tablestore.Entity, ifMatch string) (string, error) {
	return t.write("MERGE", table, e, ifMatch)
}

func (t *TableClient) write(method, table string, e *tablestore.Entity, ifMatch string) (string, error) {
	body, err := odata.EncodeEntity(e)
	if err != nil {
		return "", err
	}
	var headers []header
	if ifMatch != "" {
		headers = []header{{hIfMatch, ifMatch}}
	}
	resp, err := t.c.do(request{op: "write",
		method:  method,
		path:    entityPath(table, e.PartitionKey, e.RowKey),
		headers: headers,
		body:    body,
	})
	if err != nil {
		return "", err
	}
	return resp.headers.Get(hETag), nil
}

// DeleteEntity deletes an entity under an ETag condition ("*" for
// unconditional).
func (t *TableClient) DeleteEntity(table, pk, rk, ifMatch string) error {
	_, err := t.c.do(request{op: "DeleteEntity",
		method:  http.MethodDelete,
		path:    entityPath(table, pk, rk),
		headers: []header{{hIfMatch, ifMatch}},
	})
	return err
}

// QueryPage is one page of query results.
type QueryPage struct {
	Entities []*tablestore.Entity
	Next     tablestore.Continuation
}

// Query runs a filtered scan, resuming from a continuation.
func (t *TableClient) Query(table, filter string, top int, from tablestore.Continuation) (QueryPage, error) {
	var q string // "$" goes out escaped, as url.Values.Encode writes a key
	if filter != "" {
		q = "%24filter=" + url.QueryEscape(filter)
	}
	if top > 0 {
		if q != "" {
			q += "&"
		}
		q += "%24top=" + strconv.Itoa(top)
	}
	var headers []header
	if !from.IsZero() {
		headers = []header{{hNextPartitionKey, from.NextPartitionKey}, {hNextRowKey, from.NextRowKey}}
	}
	resp, err := t.c.do(request{op: "Query",
		method:  http.MethodGet,
		path:    "/table/" + esc(table),
		query:   q,
		headers: headers,
	})
	if err != nil {
		return QueryPage{}, err
	}
	entities, err := odata.DecodePage(resp.body)
	if err != nil {
		return QueryPage{}, fmt.Errorf("sdk: bad query result: %w", err)
	}
	return QueryPage{
		Entities: entities,
		Next: tablestore.Continuation{
			NextPartitionKey: resp.headers.Get(hNextPartitionKey),
			NextRowKey:       resp.headers.Get(hNextRowKey),
		},
	}, nil
}

// QueryAll drains a query across continuations.
func (t *TableClient) QueryAll(table, filter string) ([]*tablestore.Entity, error) {
	var all []*tablestore.Entity
	var from tablestore.Continuation
	for {
		page, err := t.Query(table, filter, 0, from)
		if err != nil {
			return nil, err
		}
		all = append(all, page.Entities...)
		if page.Next.IsZero() {
			return all, nil
		}
		from = page.Next
	}
}
