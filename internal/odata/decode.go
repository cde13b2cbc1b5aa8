package odata

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/tablestore"
)

// DecodeEntity parses a JSON object into an entity.
func DecodeEntity(raw []byte) (*tablestore.Entity, error) {
	d := decoder{data: raw}
	d.skipSpace()
	e, err := d.entity(1)
	if err != nil {
		return nil, err
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return e, nil
}

// DecodePage parses what AppendPage writes: an object whose "value" member
// is an array of entities, or null for an empty page. Other members are
// skipped.
func DecodePage(raw []byte) ([]*tablestore.Entity, error) {
	d := decoder{data: raw}
	d.skipSpace()
	if d.peek() != '{' {
		return nil, d.syntax("looking for the page object")
	}
	var page []*tablestore.Entity
	err := d.object(1, func(key []byte) error {
		if string(key) != "value" {
			var skipped field
			return d.value(&skipped, 2)
		}
		page = page[:0]
		switch d.peek() {
		case 'n':
			return d.literal("null")
		case '[':
			return d.array(2, func() error {
				e, err := d.entity(3)
				page = append(page, e)
				return err
			})
		}
		return d.syntax("looking for the array of entities")
	})
	if err != nil {
		return nil, err
	}
	if err := d.end(); err != nil {
		return nil, err
	}
	return page, nil
}

// decoder scans a body once, left to right. The grammar, the strings'
// unquoting rules and the nesting limit are encoding/json's, so a body is
// accepted here exactly when json.Unmarshal accepted it.
type decoder struct {
	data []byte
	pos  int
}

// maxDepth is encoding/json's limit on nested arrays and objects.
const maxDepth = 10000

func (d *decoder) syntax(context string) error {
	if d.pos >= len(d.data) {
		return storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad entity JSON: unexpected end of input %s", context)
	}
	return storecommon.Errf(storecommon.CodeInvalidInput, 400,
		"bad entity JSON: invalid character %q at offset %d %s", d.data[d.pos], d.pos, context)
}

func badProp(name []byte, err error) error {
	return storecommon.Errf(storecommon.CodeInvalidInput, 400, "property %s: %v", name, err)
}

// peek returns the byte at the cursor, 0 at the end of input (a byte no
// JSON token starts with).
func (d *decoder) peek() byte {
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// end accepts trailing white space and nothing else.
func (d *decoder) end() error {
	d.skipSpace()
	if d.pos < len(d.data) {
		return d.syntax("after the top-level value")
	}
	return nil
}

// field is one scanned member of an entity's object: its unquoted key and
// its value, still as wire bytes.
type field struct {
	key  []byte
	kind valueKind
	// raw is a string's contents between the quotes, or a number's
	// literal. verbatim says a string's contents hold no escape and are
	// valid UTF-8, so they are the string.
	raw      []byte
	verbatim bool
}

type valueKind uint8

const (
	kindString valueKind = iota
	kindNumber
	kindTrue
	kindFalse
	kindNull
	kindNested // an array or object: well-formed, and nothing an entity can hold
)

// value scans the value at the cursor into f. depth is the nesting level
// an array or object here would have.
func (d *decoder) value(f *field, depth int) (err error) {
	switch c := d.peek(); {
	case c == '"':
		f.kind = kindString
		f.raw, f.verbatim, err = d.scanString()
	case c == '-' || '0' <= c && c <= '9':
		f.kind = kindNumber
		f.raw, err = d.scanNumber()
	case c == 't':
		f.kind, err = kindTrue, d.literal("true")
	case c == 'f':
		f.kind, err = kindFalse, d.literal("false")
	case c == 'n':
		f.kind, err = kindNull, d.literal("null")
	case c == '{':
		f.kind = kindNested
		err = d.object(depth, func([]byte) error {
			var skipped field
			return d.value(&skipped, depth+1)
		})
	case c == '[':
		f.kind = kindNested
		err = d.array(depth, func() error {
			var skipped field
			return d.value(&skipped, depth+1)
		})
	default:
		err = d.syntax("looking for a value")
	}
	return err
}

func (d *decoder) literal(word string) error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte(word)) {
		return d.syntax("in literal " + word)
	}
	d.pos += len(word)
	return nil
}

// object walks the object whose '{' is at the cursor. For each member it
// calls member with the unquoted key and the cursor on the value; member
// consumes the value.
func (d *decoder) object(depth int, member func(key []byte) error) error {
	if depth > maxDepth {
		return d.syntax("exceeded max depth")
	}
	d.pos++
	d.skipSpace()
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.syntax("looking for an object key")
		}
		key, verbatim, err := d.scanString()
		if err != nil {
			return err
		}
		if !verbatim {
			key = unquote(key)
		}
		d.skipSpace()
		if d.peek() != ':' {
			return d.syntax("after an object key")
		}
		d.pos++
		d.skipSpace()
		if err := member(key); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case '}':
			d.pos++
			return nil
		default:
			return d.syntax("after an object member")
		}
	}
}

// array walks the array whose '[' is at the cursor, calling elem with the
// cursor on each element; elem consumes it.
func (d *decoder) array(depth int, elem func() error) error {
	if depth > maxDepth {
		return d.syntax("exceeded max depth")
	}
	d.pos++
	d.skipSpace()
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.pos++
			d.skipSpace()
		case ']':
			d.pos++
			return nil
		default:
			return d.syntax("after an array element")
		}
	}
}

// plainByte marks the bytes a string literal holds as themselves: not a
// control character, the quote, the backslash, or part of a multi-byte
// rune.
var plainByte = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// scanString consumes the string literal whose opening quote is at the
// cursor and returns its contents, still escaped. verbatim reports that
// they need no unquoting.
func (d *decoder) scanString() (raw []byte, verbatim bool, err error) {
	data := d.data
	start := d.pos + 1
	escaped, ascii := false, true
	for i := start; ; i++ {
		for i < len(data) && plainByte[data[i]] {
			i++
		}
		if i >= len(data) {
			d.pos = i
			return nil, false, d.syntax("in a string literal")
		}
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			raw = data[start:i]
			return raw, !escaped && (ascii || utf8.Valid(raw)), nil
		case c == '\\':
			escaped = true
			n := escapeLen(data[i+1:])
			if n == 0 {
				d.pos = i
				return nil, false, d.syntax("in a string escape")
			}
			i += n
		case c >= utf8.RuneSelf:
			ascii = false
		default:
			d.pos = i
			return nil, false, d.syntax("in a string literal")
		}
	}
}

// escapeLen is the length of the escape at the head of s, the bytes after
// a backslash: 1, 5 for uXXXX, 0 when there is no well-formed one.
func escapeLen(s []byte) int {
	switch {
	case len(s) >= 5 && s[0] == 'u' && isHex(s[1]) && isHex(s[2]) && isHex(s[3]) && isHex(s[4]):
		return 5
	case len(s) >= 1 && strings.IndexByte(`"\/bfnrt`, s[0]) >= 0:
		return 1
	}
	return 0
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// hex4 reads the four hex digits of a \u escape, or -1 when s does not
// start with one.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// unquote resolves the escapes of a scanned string literal's contents the
// way encoding/json does: a surrogate pair becomes its rune, a lone
// surrogate and every byte that is not UTF-8 become U+FFFD.
func unquote(raw []byte) []byte {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); {
		switch c := raw[i]; {
		case c == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i:])
			i += 6
			if utf16.IsSurrogate(r) {
				if pair := utf16.DecodeRune(r, hex4(raw[i:])); pair != unicode.ReplacementChar {
					r = pair
					i += 6
				} else {
					r = unicode.ReplacementChar
				}
			}
			out = utf8.AppendRune(out, r)
		case c == '\\':
			c = raw[i+1]
			switch c {
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			}
			out = append(out, c)
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return out
}

// scanNumber consumes the number literal at the cursor.
func (d *decoder) scanNumber() ([]byte, error) {
	start := d.pos
	digits := func() bool {
		from := d.pos
		for c := d.peek(); '0' <= c && c <= '9'; c = d.peek() {
			d.pos++
		}
		return d.pos > from
	}
	if d.peek() == '-' {
		d.pos++
	}
	if d.peek() == '0' {
		d.pos++
	} else if !digits() {
		return nil, d.syntax("in a number")
	}
	if d.peek() == '.' {
		d.pos++
		if !digits() {
			return nil, d.syntax("after a decimal point")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.pos++
		if c := d.peek(); c == '+' || c == '-' {
			d.pos++
		}
		if !digits() {
			return nil, d.syntax("in an exponent")
		}
	}
	return d.data[start:d.pos], nil
}

// entity decodes the value at the cursor, an object (or null, which
// json.Unmarshal into a map took for an empty one) at nesting level depth.
func (d *decoder) entity(depth int) (*tablestore.Entity, error) {
	var stack [16]field
	fields := stack[:0]
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return nil, err
		}
	case '{':
		err := d.object(depth, func(key []byte) error {
			f := field{key: key}
			err := d.value(&f, depth+1)
			fields = append(fields, f)
			return err
		})
		if err != nil {
			return nil, err
		}
	default:
		return nil, d.syntax("looking for an entity object")
	}
	return buildEntity(fields)
}

var annotationBytes = []byte(annotation)

// buildEntity interprets the scanned members. It sorts them by key, which
// puts repeats of a key side by side (the last one wins, as in a map) and
// lets a property find its annotation by binary search wherever in the
// object it was written.
func buildEntity(fields []field) (*tablestore.Entity, error) {
	slices.SortStableFunc(fields, func(a, b field) int { return bytes.Compare(a.key, b.key) })
	e := &tablestore.Entity{Props: make(map[string]tablestore.Value, len(fields)/2)}
	for i := range fields {
		f := &fields[i]
		if i+1 < len(fields) && bytes.Equal(f.key, fields[i+1].key) {
			continue
		}
		switch {
		case bytes.HasSuffix(f.key, annotationBytes):
			if f.kind != kindString && f.kind != kindNull {
				return nil, storecommon.Errf(storecommon.CodeInvalidInput, 400,
					"bad type annotation for %s", f.key[:len(f.key)-len(annotation)])
			}
			continue
		case bytes.Contains(f.key, annotationBytes):
			continue
		}
		var s []byte
		var v tablestore.Value
		var err error
		switch string(f.key) {
		case "odata.etag": // advisory: the header carries the ETag, and anything but a string reads as none
			if f.kind == kindString {
				e.ETag = string(f.text())
			}
		case "PartitionKey":
			s, err = f.str()
			e.PartitionKey = string(s)
		case "RowKey":
			s, err = f.str()
			e.RowKey = string(s)
		case "Timestamp":
			v, err = f.edmValue([]byte("Edm.DateTime"))
			e.Timestamp = v.T
		default:
			if v, err = f.edmValue(edmTypeOf(fields, f.key)); err == nil {
				e.Props[string(f.key)] = v
			}
		}
		if err != nil {
			return nil, badProp(f.key, err)
		}
	}
	return e, nil
}

// str reads the member as the string a key field or a string-carried EDM
// type needs; null reads as the empty string, as it did for json.Unmarshal.
func (f *field) str() ([]byte, error) {
	if f.kind != kindString && f.kind != kindNull {
		return nil, fmt.Errorf("value is not a string")
	}
	return f.text(), nil
}

// text is a string value unquoted; null and every other kind read as
// empty.
func (f *field) text() []byte {
	switch {
	case f.kind != kindString:
		return nil
	case f.verbatim:
		return f.raw
	}
	return unquote(f.raw)
}

// edmTypeOf returns the annotation written for the property named key:
// the value of the last member named key+"@odata.type", empty when there
// is none or it is null.
func edmTypeOf(fields []field, key []byte) []byte {
	i, found := slices.BinarySearchFunc(fields, key, func(f field, key []byte) int {
		// Order f.key against key+"@odata.type".
		if len(f.key) < len(key) {
			if c := bytes.Compare(f.key, key[:len(f.key)]); c != 0 {
				return c
			}
			return -1
		}
		if c := bytes.Compare(f.key[:len(key)], key); c != 0 {
			return c
		}
		return bytes.Compare(f.key[len(key):], annotationBytes)
	})
	if !found {
		return nil
	}
	for i+1 < len(fields) && bytes.Equal(fields[i].key, fields[i+1].key) {
		i++
	}
	return fields[i].text()
}

// edmValue interprets the member as a value of the annotated EDM type.
func (f *field) edmValue(edmType []byte) (v tablestore.Value, err error) {
	switch string(edmType) {
	case "Edm.Int64":
		var s []byte
		var n int64
		if s, err = f.str(); err == nil {
			n, err = strconv.ParseInt(string(s), 10, 64)
		}
		return tablestore.Int64(n), err
	case "Edm.Double":
		var x float64
		switch f.kind {
		case kindNull: // json.Unmarshal left the float64 at zero
		case kindNumber:
			x, err = strconv.ParseFloat(string(f.raw), 64)
		default:
			err = fmt.Errorf("value is not a number")
		}
		return tablestore.Double(x), err
	case "Edm.DateTime":
		var s []byte
		var t time.Time
		if s, err = f.str(); err == nil {
			t, err = time.Parse(timestampFormat, string(s))
		}
		return tablestore.DateTime(t), err
	case "Edm.Guid":
		s, err := f.str()
		return tablestore.GUID(string(s)), err
	case "Edm.Binary":
		src, err := f.str()
		if err != nil {
			return v, err
		}
		// Straight from the wire buffer into the bytes the payload keeps.
		bin := make([]byte, base64.StdEncoding.DecodedLen(len(src)))
		n, err := base64.StdEncoding.Decode(bin, src)
		return tablestore.Binary(payload.Bytes(bin[:n])), err
	case "", "Edm.String", "Edm.Boolean", "Edm.Int32":
		// Untyped JSON: infer from the JSON value itself.
		switch f.kind {
		case kindString:
			return tablestore.String(string(f.text())), nil
		case kindTrue, kindFalse:
			return tablestore.Bool(f.kind == kindTrue), nil
		case kindNumber:
			x, err := strconv.ParseFloat(string(f.raw), 64)
			// JSON numbers without annotation are Int32 when integral
			// (Azure's convention), Double otherwise.
			if err == nil && x >= -1<<31 && x < 1<<31 && x == float64(int64(x)) {
				return tablestore.Int32(int32(x)), nil
			}
			return tablestore.Double(x), err
		}
		return v, fmt.Errorf("unsupported JSON value")
	}
	return v, fmt.Errorf("unsupported EDM type %q", edmType)
}
