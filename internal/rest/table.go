package rest

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"

	"azurebench/internal/odata"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
)

// serveTable serves /table/Tables, /table/Tables('{name}'), and an entity
// set /table/{name} or entity /table/{name}(PartitionKey='…',RowKey='…').
func (s *Server) serveTable(w http.ResponseWriter, r *request) error {
	table, pk, rk, ifMatch := r.name, r.pk, r.rk, r.Header.Get(hIfMatch)
	tables := !r.entity && table == "Tables"
	switch m := r.Method; {
	case tables && m == http.MethodPost:
		var body struct {
			TableName string `json:"TableName"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
			return storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad body: %v", err)
		}
		if err := engineDo(r, func() error { return s.Table.CreateTable(body.TableName) }); err != nil {
			return err
		}
		writeJSON(w, http.StatusCreated, map[string]string{"TableName": body.TableName})
	case tables && m == http.MethodGet:
		done := engineStart(r)
		names := s.Table.ListTables("")
		done()
		type entry struct {
			TableName string `json:"TableName"`
		}
		out := struct {
			Value []entry `json:"value"`
		}{}
		for _, n := range names {
			out.Value = append(out.Value, entry{TableName: n})
		}
		writeJSON(w, http.StatusOK, out)
	case !r.entity && !tables && m == http.MethodDelete: // Tables('name')
		name := strings.TrimSuffix(strings.TrimPrefix(table, "Tables('"), "')")
		return reply(w, http.StatusNoContent, engineDo(r, func() error { return s.Table.DeleteTable(name) }))
	case !r.entity:
		return methodNotAllowed(r)
	case r.keyed && m == http.MethodGet:
		done := engineStart(r)
		row, err := s.Table.Get(table, pk, rk)
		done()
		if err != nil {
			return err
		}
		// Encoded outside the store's lock: the store never writes a row
		// it has handed out.
		setHeader(w.Header(), hETag, row.ETag())
		return writeEntityJSON(w, http.StatusOK, row)
	case r.keyed && (m == http.MethodPut || m == "MERGE"):
		// Replace or Merge; with no If-Match, InsertOrReplace or
		// InsertOrMerge.
		e, err := readEntity(r)
		if err != nil {
			return err
		}
		e.PartitionKey, e.RowKey = pk, rk
		var stored tablestore.Row
		done := engineStart(r)
		switch {
		case m == http.MethodPut && ifMatch == "":
			stored, err = s.Table.InsertOrReplace(table, e)
		case m == http.MethodPut:
			stored, err = s.Table.Replace(table, e, ifMatch)
		case ifMatch == "":
			stored, err = s.Table.InsertOrMerge(table, e)
		default:
			stored, err = s.Table.Merge(table, e, ifMatch)
		}
		done()
		if err != nil {
			return err
		}
		setHeader(w.Header(), hETag, stored.ETag())
		w.WriteHeader(http.StatusNoContent)
	case r.keyed && m == http.MethodDelete:
		if ifMatch == "" {
			return storecommon.Errf(storecommon.CodeMissingRequiredHeader, 400,
				"DELETE requires If-Match (use * for unconditional)")
		}
		return reply(w, http.StatusNoContent, engineDo(r, func() error { return s.Table.Delete(table, pk, rk, ifMatch) }))
	case r.keyed:
		return methodNotAllowed(r)
	case m == http.MethodPost: // Insert
		e, err := readEntity(r)
		if err != nil {
			return err
		}
		done := engineStart(r)
		stored, err := s.Table.Insert(table, e)
		done()
		if err != nil {
			return err
		}
		setHeader(w.Header(), hETag, stored.ETag())
		return writeEntityJSON(w, http.StatusCreated, stored)
	case m == http.MethodGet: // Query
		return s.queryEntities(w, r, table)
	default:
		return methodNotAllowed(r)
	}
	return nil
}

// parseEntityKey parses `name(PartitionKey='p',RowKey='r')`.
func parseEntityKey(resource string) (table, pk, rk string, ok bool) {
	open := strings.IndexByte(resource, '(')
	if open < 0 || !strings.HasSuffix(resource, ")") {
		return resource, "", "", false
	}
	table = resource[:open]
	inner := resource[open+1 : len(resource)-1]
	for more := true; more; {
		var kv string
		kv, inner, more = strings.Cut(inner, ",")
		k, v, found := strings.Cut(strings.TrimSpace(kv), "=")
		if !found {
			return table, "", "", false
		}
		v = strings.TrimSuffix(strings.TrimPrefix(v, "'"), "'")
		if strings.IndexByte(v, '\'') >= 0 {
			v = strings.ReplaceAll(v, "''", "'")
		}
		switch k {
		case "PartitionKey":
			pk = v
		case "RowKey":
			rk = v
		}
	}
	return table, pk, rk, true
}

func (s *Server) queryEntities(w http.ResponseWriter, r *request, table string) error {
	top, err := r.intParam("$top", 0)
	if err != nil {
		return err
	}
	from := tablestore.Continuation{
		NextPartitionKey: r.Header.Get(hNextPartitionKey),
		NextRowKey:       r.Header.Get(hNextRowKey),
	}
	done := engineStart(r)
	res, err := s.Table.Query(table, r.param("$filter"), top, from)
	done()
	if err != nil {
		return err
	}
	buf := getScratch()
	defer buf.release()
	if buf.b, err = odata.AppendPage(buf.b[:0], res.Entities); err != nil {
		return err
	}
	if !res.Next.IsZero() {
		setHeader(w.Header(), hNextPartitionKey, res.Next.NextPartitionKey)
		setHeader(w.Header(), hNextRowKey, res.Next.NextRowKey)
	}
	writeBody(w, http.StatusOK, jsonType, buf.b)
	return nil
}

func readEntity(r *request) (*tablestore.Entity, error) {
	buf := getScratch()
	defer buf.release()
	raw, err := readBody(r, 2*storecommon.MaxEntitySize, buf)
	if err != nil {
		return nil, err
	}
	return odata.DecodeEntity(raw) // which keeps nothing of raw
}

func writeEntityJSON(w http.ResponseWriter, status int, row tablestore.Row) error {
	buf := getScratch()
	defer buf.release()
	var err error
	if buf.b, err = odata.AppendRow(buf.b[:0], row); err != nil {
		return err
	}
	writeBody(w, status, jsonType, buf.b)
	return nil
}

// writeJSON serves the table-level operations (create, list); entities
// and pages go through package odata.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(v)
	writeBody(w, status, jsonType, buf.Bytes())
}
