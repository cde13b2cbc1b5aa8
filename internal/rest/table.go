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

// handleTable routes /table/Tables... and /table/{name}...
func (s *Server) handleTable(w http.ResponseWriter, r *http.Request) {
	resource, _ := pathParts(r, "/table/")
	if resource == "" {
		writeError(w, storecommon.Errf(storecommon.CodeInvalidInput, 400, "missing table resource"))
		return
	}
	switch {
	case resource == "Tables":
		if !s.throttle.allow("", "") {
			writeBusy(w)
			return
		}
		s.handleTables(w, r)
	case strings.HasPrefix(resource, "Tables('"):
		if !s.throttle.allow("", "") {
			writeBusy(w)
			return
		}
		name := strings.TrimSuffix(strings.TrimPrefix(resource, "Tables('"), "')")
		if r.Method != http.MethodDelete {
			writeMethodNotAllowed(w, r)
			return
		}
		if err := engineDo(r, func() error { return s.Table.DeleteTable(name) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		s.handleEntities(w, r, resource)
	}
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		var body struct {
			TableName string `json:"TableName"`
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&body); err != nil {
			writeError(w, storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad body: %v", err))
			return
		}
		if err := engineDo(r, func() error { return s.Table.CreateTable(body.TableName) }); err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusCreated, map[string]string{"TableName": body.TableName})
	case http.MethodGet:
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
	default:
		writeMethodNotAllowed(w, r)
	}
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

func (s *Server) handleEntities(w http.ResponseWriter, r *http.Request, resource string) {
	table, pk, rk, keyed := parseEntityKey(resource)
	if s.throttle != nil && !s.throttle.allow("", table+"|"+pk) {
		writeBusy(w)
		return
	}
	if keyed {
		s.handleEntityByKey(w, r, table, pk, rk)
		return
	}
	switch r.Method {
	case http.MethodPost: // Insert
		e, err := readEntity(r)
		if err != nil {
			writeError(w, err)
			return
		}
		done := engineStart(r)
		stored, err := s.Table.Insert(table, e)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		setHeader(w.Header(), hETag, stored.ETag())
		writeEntityJSON(w, http.StatusCreated, stored)
	case http.MethodGet: // Query
		q := r.URL.Query()
		top, err := queryInt(q, "$top", 0)
		if err != nil {
			writeError(w, err)
			return
		}
		from := tablestore.Continuation{
			NextPartitionKey: r.Header.Get(hNextPartitionKey),
			NextRowKey:       r.Header.Get(hNextRowKey),
		}
		done := engineStart(r)
		res, err := s.Table.Query(table, q.Get("$filter"), top, from)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		buf := getScratch()
		defer buf.release()
		if buf.b, err = odata.AppendPage(buf.b[:0], res.Entities); err != nil {
			writeError(w, err)
			return
		}
		if !res.Next.IsZero() {
			setHeader(w.Header(), hNextPartitionKey, res.Next.NextPartitionKey)
			setHeader(w.Header(), hNextRowKey, res.Next.NextRowKey)
		}
		writeBody(w, http.StatusOK, jsonType, buf.b)
	default:
		writeMethodNotAllowed(w, r)
	}
}

func (s *Server) handleEntityByKey(w http.ResponseWriter, r *http.Request, table, pk, rk string) {
	ifMatch := r.Header.Get(hIfMatch)
	switch r.Method {
	case http.MethodGet:
		done := engineStart(r)
		row, err := s.Table.Get(table, pk, rk)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		// Encoded outside the store's lock: the store never writes a row
		// it has handed out.
		setHeader(w.Header(), hETag, row.ETag())
		writeEntityJSON(w, http.StatusOK, row)
	case http.MethodPut: // Replace (or InsertOrReplace when no If-Match)
		e, err := readEntity(r)
		if err != nil {
			writeError(w, err)
			return
		}
		e.PartitionKey, e.RowKey = pk, rk
		var stored tablestore.Row
		done := engineStart(r)
		if ifMatch == "" {
			stored, err = s.Table.InsertOrReplace(table, e)
		} else {
			stored, err = s.Table.Replace(table, e, ifMatch)
		}
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		setHeader(w.Header(), hETag, stored.ETag())
		w.WriteHeader(http.StatusNoContent)
	case "MERGE": // Merge (or InsertOrMerge when no If-Match)
		e, err := readEntity(r)
		if err != nil {
			writeError(w, err)
			return
		}
		e.PartitionKey, e.RowKey = pk, rk
		var stored tablestore.Row
		done := engineStart(r)
		if ifMatch == "" {
			stored, err = s.Table.InsertOrMerge(table, e)
		} else {
			stored, err = s.Table.Merge(table, e, ifMatch)
		}
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		setHeader(w.Header(), hETag, stored.ETag())
		w.WriteHeader(http.StatusNoContent)
	case http.MethodDelete:
		if ifMatch == "" {
			writeError(w, storecommon.Errf(storecommon.CodeMissingRequiredHeader, 400,
				"DELETE requires If-Match (use * for unconditional)"))
			return
		}
		if err := engineDo(r, func() error { return s.Table.Delete(table, pk, rk, ifMatch) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		writeMethodNotAllowed(w, r)
	}
}

func readEntity(r *http.Request) (*tablestore.Entity, error) {
	buf := getScratch()
	defer buf.release()
	raw, err := readBody(r, 2*storecommon.MaxEntitySize, buf)
	if err != nil {
		return nil, err
	}
	return odata.DecodeEntity(raw) // which keeps nothing of raw
}

func writeEntityJSON(w http.ResponseWriter, status int, row tablestore.Row) {
	buf := getScratch()
	defer buf.release()
	var err error
	if buf.b, err = odata.AppendRow(buf.b[:0], row); err != nil {
		writeError(w, err)
		return
	}
	writeBody(w, status, jsonType, buf.b)
}

// writeJSON serves the table-level operations (create, list); entities
// and pages go through package odata.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var buf bytes.Buffer
	json.NewEncoder(&buf).Encode(v)
	writeBody(w, status, jsonType, buf.Bytes())
}
