// Package odata implements the JSON wire representation of table entities
// shared by the REST emulator and the client SDK: property values carry
// EDM type annotations ("Prop@odata.type": "Edm.Int64") the way the Azure
// Table service serialises them.
//
// The encoder appends straight into the wire buffer and the decoder scans
// the body once; neither goes through encoding/json. The bytes are the
// canonical form json.Marshal gives the same object — keys sorted, strings
// escaped the way encoding/json escapes them with HTML escaping on,
// doubles in its float format — and the decoder accepts exactly what
// json.Unmarshal into a map accepted, so the two are interchangeable with
// the codec they replaced (kept in model_test.go as the reference model).
package odata

import (
	"encoding/base64"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

	"azurebench/internal/tablestore"
)

// timestampFormat is the wire format of Edm.DateTime values.
const timestampFormat = time.RFC3339Nano

// annotation is the key suffix that carries a property's EDM type.
const annotation = "@odata.type"

// EncodeEntity renders an entity as a JSON object. It reads e's map
// directly, writing into one allocation of close to the object's size.
func EncodeEntity(e *tablestore.Entity) ([]byte, error) {
	h := header{e.PartitionKey, e.RowKey, e.Timestamp, e.ETag}
	var stack [16]member
	ms, n := h.members(stack[:0], len(e.Props))
	for name, v := range e.Props {
		ms = appendProp(ms, name, v.Type)
		n += sizeHint(name, v)
	}
	return h.append(make([]byte, 0, n), ms, func(name string) tablestore.Value { return e.Props[name] })
}

// AppendPage appends one page of query results the way the table service
// writes it: {"value":[...]} and a newline, {"value":null} for an empty
// page.
func AppendPage(dst []byte, rows []tablestore.Row) ([]byte, error) {
	if len(rows) == 0 {
		return append(dst, "{\"value\":null}\n"...), nil
	}
	dst = append(dst, `{"value":[`...)
	for i, r := range rows {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendRow(dst, r); err != nil {
			return nil, err
		}
	}
	return append(dst, "]}\n"...), nil
}

// sizeHint is what property name=v adds to an object's encoded length
// when no string needs escaping, short of the digits of its numbers
// (bounded instead).
func sizeHint(name string, v tablestore.Value) int {
	n := len(`,"":`) + len(name)
	if a := edmAnnotation(v.Type); a != "" {
		n += len(`,"@odata.type":""`) + len(name) + len(a)
	}
	switch v.Type {
	case tablestore.TypeString, tablestore.TypeGUID:
		return n + len(`""`) + len(v.S)
	case tablestore.TypeBinary:
		return n + len(`""`) + base64.StdEncoding.EncodedLen(int(v.Bin.Len()))
	default: // the longest are a double's 24 digits and a date's 35
		return n + len(`""`) + len(timestampFormat)
	}
}

// member is one key of the object being written.
type member struct {
	name string
	kind memberKind
	typ  tablestore.PropType // of Props[name]
}

type memberKind uint8

const (
	systemKey memberKind = iota // PartitionKey, RowKey, Timestamp, odata.etag
	propValue                   // Props[name]
	propType                    // Props[name]'s annotation, key name+"@odata.type"
)

func (m member) suffix() string {
	if m.kind == propType {
		return annotation
	}
	return ""
}

func (m member) compare(o member) int {
	return compareConcat(m.name, m.suffix(), o.name, o.suffix())
}

// compareConcat orders a1+a2 against b1+b2 bytewise without building
// either string.
func compareConcat(a1, a2, b1, b2 string) int {
	for {
		if a1 == "" {
			a1, a2 = a2, ""
		}
		if b1 == "" {
			b1, b2 = b2, ""
		}
		n := min(len(a1), len(b1))
		if n == 0 {
			return len(a1) - len(b1) // one side is exhausted: the shorter sorts first
		}
		if c := strings.Compare(a1[:n], b1[:n]); c != 0 {
			return c
		}
		a1, b1 = a1[n:], b1[n:]
	}
}

// edmAnnotation is the annotation a value of type t carries on the wire;
// String, Boolean and Int32 are inferred from the JSON value and carry
// none.
func edmAnnotation(t tablestore.PropType) string {
	switch t {
	case tablestore.TypeDouble, tablestore.TypeInt64, tablestore.TypeDateTime,
		tablestore.TypeGUID, tablestore.TypeBinary:
		return t.String()
	}
	return ""
}

// AppendRow appends r's JSON object to dst.
func AppendRow(dst []byte, r tablestore.Row) ([]byte, error) {
	h := header{r.PartitionKey(), r.RowKey(), r.Timestamp(), r.ETag()}
	var stack [16]member
	ms, _ := h.members(stack[:0], r.Len())
	r.Range(func(name string, v tablestore.Value) bool {
		ms = appendProp(ms, name, v.Type)
		return true
	})
	return h.append(dst, ms, func(name string) tablestore.Value {
		v, _ := r.Prop(name)
		return v
	})
}

// header is an object's system keys.
type header struct {
	pk, rk string
	ts     time.Time
	etag   string
}

// members starts the member list of an object with nProps properties,
// in ms if it has room, with the system keys h writes; n is their
// encoded length, the object's braces included.
func (h header) members(ms []member, nProps int) (_ []member, n int) {
	if c := 4 + 2*nProps; c > cap(ms) {
		ms = make([]member, 0, c)
	}
	ms = append(ms, member{name: "PartitionKey"}, member{name: "RowKey"})
	n = len(`{"PartitionKey":"","RowKey":""}`) + len(h.pk) + len(h.rk)
	if !h.ts.IsZero() {
		ms = append(ms, member{name: "Timestamp"})
		n += len(`,"Timestamp":""`) + len(timestampFormat)
	}
	if h.etag != "" {
		ms = append(ms, member{name: "odata.etag"})
		n += len(`,"odata.etag":""`) + len(h.etag)
	}
	return ms, n
}

// appendProp adds property name's members: its value and, for a type the
// wire does not infer, its annotation.
func appendProp(ms []member, name string, t tablestore.PropType) []member {
	if t < tablestore.TypeString || t > tablestore.TypeGUID {
		return ms // not an EDM type: nothing to write
	}
	ms = append(ms, member{name, propValue, t})
	if edmAnnotation(t) != "" {
		ms = append(ms, member{name, propType, t})
	}
	return ms
}

// append writes the object: h's system keys and the properties ms names,
// whose values prop returns.
func (h header) append(dst []byte, ms []member, prop func(name string) tablestore.Value) ([]byte, error) {
	// Keys go out sorted. Where two members spell one key (a property
	// named like a system key) the later one wins, as it did when the
	// object was assembled in a map.
	slices.SortStableFunc(ms, member.compare)
	dst = append(dst, '{')
	open := len(dst)
	for i, m := range ms {
		if i+1 < len(ms) && m.compare(ms[i+1]) == 0 {
			continue
		}
		if len(dst) > open {
			dst = append(dst, ',')
		}
		dst = appendString(dst, m.name, m.suffix())
		dst = append(dst, ':')
		switch m.kind {
		case systemKey:
			dst = h.appendSystem(dst, m.name)
		case propType:
			dst = appendString(dst, edmAnnotation(m.typ), "")
		case propValue:
			var err error
			if dst, err = appendValue(dst, prop(m.name)); err != nil {
				return nil, fmt.Errorf("odata: property %s: %w", m.name, err)
			}
		}
	}
	return append(dst, '}'), nil
}

func (h header) appendSystem(dst []byte, key string) []byte {
	switch key {
	case "PartitionKey":
		return appendString(dst, h.pk, "")
	case "RowKey":
		return appendString(dst, h.rk, "")
	case "Timestamp":
		return appendTime(dst, h.ts)
	default:
		return appendString(dst, h.etag, "")
	}
}

func appendValue(dst []byte, v tablestore.Value) ([]byte, error) {
	switch v.Type {
	case tablestore.TypeString, tablestore.TypeGUID:
		return appendString(dst, v.S, ""), nil
	case tablestore.TypeBool:
		return strconv.AppendBool(dst, v.B), nil
	case tablestore.TypeInt32:
		return strconv.AppendInt(dst, v.I, 10), nil
	case tablestore.TypeInt64:
		dst = append(dst, '"')
		dst = strconv.AppendInt(dst, v.I, 10)
		return append(dst, '"'), nil
	case tablestore.TypeDouble:
		return appendDouble(dst, v.F)
	case tablestore.TypeDateTime:
		return appendTime(dst, v.T), nil
	default: // TypeBinary; base64's alphabet needs no escaping
		dst = append(dst, '"')
		dst = base64.StdEncoding.AppendEncode(dst, v.Bin.AsBytes())
		return append(dst, '"'), nil
	}
}

// appendTime writes t in timestampFormat, whose characters need no
// escaping.
func appendTime(dst []byte, t time.Time) []byte {
	dst = append(dst, '"')
	dst = t.UTC().AppendFormat(dst, timestampFormat)
	return append(dst, '"')
}

// appendDouble writes f the way encoding/json does (ES6 number-to-string:
// exponent form below 1e-6 and from 1e21, exponents unpadded). Like it,
// it refuses NaN and the infinities, which JSON cannot carry.
func appendDouble(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("unsupported value %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 becomes e-9
		dst = dst[:n-1]
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendString writes s+suffix as one JSON string with encoding/json's
// escaping: control characters, the quote and the backslash, the
// HTML-sensitive <, > and &, U+2028 and U+2029, and \ufffd for each byte
// that is not UTF-8. suffix is always plain ASCII.
func appendString(dst []byte, s, suffix string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xf])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	dst = append(dst, suffix...)
	return append(dst, '"')
}

// jsonSafe marks the ASCII bytes appendString copies through unescaped.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		t[b] = !strings.ContainsRune(`"\<>&`, rune(b))
	}
	return t
}()
