package odata

// The encoding/json codec this package shipped until PR 21, kept verbatim
// (names prefixed "model") as the reference model the single-pass codec is
// checked against: same bytes out of the encoder, same accept/reject and
// same entity out of the decoder (differential_test.go, FuzzDecodeEntity).

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
)

// modelEncodeEntity renders an entity as a JSON object.
func modelEncodeEntity(e *tablestore.Entity) ([]byte, error) {
	obj := map[string]any{
		"PartitionKey": e.PartitionKey,
		"RowKey":       e.RowKey,
	}
	if !e.Timestamp.IsZero() {
		obj["Timestamp"] = e.Timestamp.UTC().Format(timestampFormat)
	}
	if e.ETag != "" {
		obj["odata.etag"] = e.ETag
	}
	for name, v := range e.Props {
		switch v.Type {
		case tablestore.TypeString:
			obj[name] = v.S
		case tablestore.TypeBool:
			obj[name] = v.B
		case tablestore.TypeInt32:
			obj[name] = v.I
		case tablestore.TypeDouble:
			obj[name] = v.F
			obj[name+"@odata.type"] = "Edm.Double"
		case tablestore.TypeInt64:
			obj[name] = strconv.FormatInt(v.I, 10)
			obj[name+"@odata.type"] = "Edm.Int64"
		case tablestore.TypeDateTime:
			obj[name] = v.T.UTC().Format(timestampFormat)
			obj[name+"@odata.type"] = "Edm.DateTime"
		case tablestore.TypeGUID:
			obj[name] = v.S
			obj[name+"@odata.type"] = "Edm.Guid"
		case tablestore.TypeBinary:
			obj[name] = base64.StdEncoding.EncodeToString(v.Bin.Materialize())
			obj[name+"@odata.type"] = "Edm.Binary"
		}
	}
	return json.Marshal(obj)
}

// modelDecodeEntity parses a JSON object into an entity.
func modelDecodeEntity(raw []byte) (*tablestore.Entity, error) {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(raw, &obj); err != nil {
		return nil, storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad entity JSON: %v", err)
	}
	e := &tablestore.Entity{Props: map[string]tablestore.Value{}}
	types := map[string]string{}
	for k, v := range obj {
		if name, ok := strings.CutSuffix(k, "@odata.type"); ok {
			var t string
			if err := json.Unmarshal(v, &t); err != nil {
				return nil, storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad type annotation for %s", name)
			}
			types[name] = t
		}
	}
	for k, v := range obj {
		if strings.Contains(k, "@odata.type") || k == "odata.etag" {
			continue
		}
		switch k {
		case "PartitionKey":
			if err := json.Unmarshal(v, &e.PartitionKey); err != nil {
				return nil, modelBadProp(k, err)
			}
		case "RowKey":
			if err := json.Unmarshal(v, &e.RowKey); err != nil {
				return nil, modelBadProp(k, err)
			}
		case "Timestamp":
			var s string
			if err := json.Unmarshal(v, &s); err != nil {
				return nil, modelBadProp(k, err)
			}
			t, err := time.Parse(timestampFormat, s)
			if err != nil {
				return nil, modelBadProp(k, err)
			}
			e.Timestamp = t
		default:
			val, err := modelDecodeValue(v, types[k])
			if err != nil {
				return nil, modelBadProp(k, err)
			}
			e.Props[k] = val
		}
	}
	if etag, ok := obj["odata.etag"]; ok {
		_ = json.Unmarshal(etag, &e.ETag)
	}
	return e, nil
}

func modelDecodeValue(raw json.RawMessage, edmType string) (tablestore.Value, error) {
	switch edmType {
	case "Edm.Int64":
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return tablestore.Value{}, err
		}
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return tablestore.Value{}, err
		}
		return tablestore.Int64(n), nil
	case "Edm.Double":
		var f float64
		if err := json.Unmarshal(raw, &f); err != nil {
			return tablestore.Value{}, err
		}
		return tablestore.Double(f), nil
	case "Edm.DateTime":
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return tablestore.Value{}, err
		}
		t, err := time.Parse(timestampFormat, s)
		if err != nil {
			return tablestore.Value{}, err
		}
		return tablestore.DateTime(t), nil
	case "Edm.Guid":
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return tablestore.Value{}, err
		}
		return tablestore.GUID(s), nil
	case "Edm.Binary":
		var s string
		if err := json.Unmarshal(raw, &s); err != nil {
			return tablestore.Value{}, err
		}
		b, err := base64.StdEncoding.DecodeString(s)
		if err != nil {
			return tablestore.Value{}, err
		}
		return tablestore.Binary(payload.Bytes(b)), nil
	case "", "Edm.String", "Edm.Boolean", "Edm.Int32":
		// Untyped JSON: infer from the JSON value itself.
		var any any
		if err := json.Unmarshal(raw, &any); err != nil {
			return tablestore.Value{}, err
		}
		switch v := any.(type) {
		case string:
			return tablestore.String(v), nil
		case bool:
			return tablestore.Bool(v), nil
		case float64:
			// JSON numbers without annotation are Int32 when integral
			// (Azure's convention), Double otherwise.
			if v == float64(int64(v)) && v >= -1<<31 && v < 1<<31 {
				return tablestore.Int32(int32(v)), nil
			}
			return tablestore.Double(v), nil
		default:
			return tablestore.Value{}, fmt.Errorf("unsupported JSON value %T", v)
		}
	default:
		return tablestore.Value{}, fmt.Errorf("unsupported EDM type %q", edmType)
	}
}

func modelBadProp(name string, err error) error {
	return storecommon.Errf(storecommon.CodeInvalidInput, 400, "property %s: %v", name, err)
}

// modelEncodePage is the query response body as rest's handler wrote it
// until PR 21: each entity through the model encoder into a RawMessage,
// the slice (nil for an empty page) through json.Encoder.
func modelEncodePage(t testing.TB, entities []*tablestore.Entity) []byte {
	var values []json.RawMessage
	for _, e := range entities {
		raw, err := modelEncodeEntity(e)
		if err != nil {
			t.Fatal(err)
		}
		values = append(values, raw)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]any{"value": values}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
