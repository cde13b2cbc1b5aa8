package odata

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/tablestore"
)

// sameEntity reports whether two decoded entities are equal: keys, system
// properties, and every property by type and content.
func sameEntity(a, b *tablestore.Entity) bool {
	if a.PartitionKey != b.PartitionKey || a.RowKey != b.RowKey || a.ETag != b.ETag ||
		!a.Timestamp.Equal(b.Timestamp) || len(a.Props) != len(b.Props) {
		return false
	}
	for name, v := range a.Props {
		w, ok := b.Props[name]
		if !ok || !v.Equal(w) {
			// NaN never reaches the wire, so Equal's F == F is exact; -0 and 0
			// compare equal there but are different doubles.
			return false
		}
		if v.Type == tablestore.TypeDouble && math.Signbit(v.F) != math.Signbit(w.F) {
			return false
		}
	}
	return true
}

// checkAgainstModel holds one entity to the codec's contract with the
// reference model: the same bytes out of the encoder (or both refuse), and
// the same entity out of both decoders on those bytes.
func checkAgainstModel(t testing.TB, e *tablestore.Entity) {
	t.Helper()
	want, wantErr := modelEncodeEntity(e)
	got, err := EncodeEntity(e)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("EncodeEntity error = %v, model error = %v\nentity: %+v", err, wantErr, e)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("encoder bytes differ from the model's\n got: %s\nwant: %s", got, want)
	}
	checkDecodeAgainstModel(t, got)
}

// checkDecodeAgainstModel requires the decoder and the model to agree on
// raw: both reject it, or both accept it and return equal entities.
func checkDecodeAgainstModel(t testing.TB, raw []byte) {
	t.Helper()
	want, wantErr := modelDecodeEntity(raw)
	got, err := DecodeEntity(raw)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("DecodeEntity error = %v, model error = %v\ninput: %q", err, wantErr, raw)
	}
	if err == nil && !sameEntity(got, want) {
		t.Fatalf("decoded entity differs from the model's\n got: %+v\nwant: %+v\ninput: %q", got, want, raw)
	}
}

// awkwardStrings are the strings the escaping rules exist for.
var awkwardStrings = []string{
	"", "plain", `quote " backslash \ slash /`, "<script>&amp;</script>",
	"tab\tnewline\nreturn\rbackspace\bformfeed\f", "nul\x00unit\x1fdel\x7f",
	"line\u2028para\u2029sep", "caf\u00e9 \u4e16\u754c \U0001F600",
	"bad\xffutf8\xc3", "\xed\xa0\x80 raw surrogate", "\ufffd literal replacement",
	"@odata.typ", "odata.etag ", "PartitionKe",
}

// genValue draws a value of every EDM type in turn, from the awkward
// corners first and at random after.
func genValue(r *rand.Rand, typ tablestore.PropType) tablestore.Value {
	str := func() string {
		if r.Intn(2) == 0 {
			return awkwardStrings[r.Intn(len(awkwardStrings))]
		}
		b := make([]byte, r.Intn(40))
		r.Read(b)
		return string(b)
	}
	switch typ {
	case tablestore.TypeString:
		return tablestore.String(str())
	case tablestore.TypeGUID:
		return tablestore.GUID(str())
	case tablestore.TypeBool:
		return tablestore.Bool(r.Intn(2) == 0)
	case tablestore.TypeInt32:
		return tablestore.Int32(int32(r.Uint32()))
	case tablestore.TypeInt64:
		return tablestore.Int64(int64(r.Uint64()))
	case tablestore.TypeDouble:
		corners := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.999999e-7, 1e-7, 1e20, 1e21, 9.99999999e20,
			math.MaxFloat64, math.SmallestNonzeroFloat64, 1 << 31, -1 << 31, 1<<31 - 1, 123456789.125, 5e-324, 1e-9, 1.5e-10}
		if r.Intn(2) == 0 {
			return tablestore.Double(corners[r.Intn(len(corners))])
		}
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return tablestore.Double(f)
			}
		}
	case tablestore.TypeDateTime:
		return tablestore.DateTime(time.Unix(r.Int63n(1<<34)-1<<33, r.Int63n(1e9)).In(time.FixedZone("x", r.Intn(24*3600)-12*3600)))
	default: // TypeBinary
		sizes := []int{0, 1, 2, 3, 33, 1024, 64 << 10}
		b := make([]byte, sizes[r.Intn(len(sizes))])
		r.Read(b)
		switch r.Intn(3) {
		case 0:
			return tablestore.Binary(payload.Bytes(b))
		case 1:
			return tablestore.Binary(payload.Synthetic(r.Uint64(), int64(len(b))))
		default:
			return tablestore.Binary(payload.Concat(payload.Bytes(b), payload.Zero(int64(r.Intn(5)))))
		}
	}
}

// genEntity is testing/quick's generator: up to a dozen properties over
// every EDM type, awkward names included, system properties present or
// not.
type genEntity struct{ *tablestore.Entity }

func (genEntity) Generate(r *rand.Rand, _ int) reflect.Value {
	e := &tablestore.Entity{
		PartitionKey: awkwardStrings[r.Intn(len(awkwardStrings))],
		RowKey:       fmt.Sprintf("row%d", r.Intn(1000)),
		Props:        map[string]tablestore.Value{},
	}
	if r.Intn(2) == 0 {
		e.Timestamp = time.Unix(r.Int63n(1<<32), r.Int63n(1e9))
		e.ETag = `W/"datetime'` + awkwardStrings[r.Intn(len(awkwardStrings))] + `'"`
	}
	for range r.Intn(13) {
		// Names never spell an annotation key: the model wrote a property
		// named "X@odata.type" and X's own annotation to one map key in
		// map-iteration order, so its bytes for that are not a function of
		// the entity.
		name := strings.ReplaceAll(awkwardStrings[r.Intn(len(awkwardStrings))], "@", "a") + fmt.Sprint(r.Intn(4))
		if r.Intn(8) == 0 {
			name = []string{"PartitionKey", "RowKey", "Timestamp", "odata.etag", "", "A", "A1", "A@"}[r.Intn(8)]
		}
		e.Props[name] = genValue(r, tablestore.PropType(r.Intn(int(tablestore.TypeGUID)+1)))
	}
	return reflect.ValueOf(genEntity{e})
}

func TestCodecMatchesModelOnGeneratedEntities(t *testing.T) {
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(21))}
	if err := quick.Check(func(g genEntity) bool {
		checkAgainstModel(t, g.Entity)
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestCodecMatchesModelOnCorners(t *testing.T) {
	one := func(name string, v tablestore.Value) *tablestore.Entity {
		return &tablestore.Entity{PartitionKey: "p", RowKey: "r", Props: map[string]tablestore.Value{name: v}}
	}
	for _, s := range awkwardStrings {
		checkAgainstModel(t, one("s", tablestore.String(s)))
		checkAgainstModel(t, one(s, tablestore.GUID(s)))
		checkAgainstModel(t, &tablestore.Entity{PartitionKey: s, RowKey: s, ETag: s})
	}
	// Doubles on both sides of the format switch-overs, and the values
	// JSON cannot carry (both codecs refuse those).
	for _, f := range []float64{0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, -1e-7, 1e20, 1e21, -1e21, 1.7976931348623157e308,
		5e-324, 100, 2147483647, 2147483648, -2147483648, -2147483649, 0.1, 1.0 / 3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		checkAgainstModel(t, one("f", tablestore.Double(f)))
	}
	for _, n := range []int{0, 1, 2, 3, 4, 1023, 64 << 10} {
		checkAgainstModel(t, one("bin", tablestore.Binary(payload.Synthetic(uint64(n), int64(n)))))
		checkAgainstModel(t, one("bin", tablestore.Binary(payload.Bytes(payload.Synthetic(7, int64(n)).Materialize()))))
	}
	// Every byte as a one-byte string, as a value and as a property name.
	for b := 0; b < 256; b++ {
		checkAgainstModel(t, one("k"+string([]byte{byte(b)}), tablestore.String(string([]byte{byte(b)}))))
	}
	// A value whose Type is no EDM type is left out by both.
	checkAgainstModel(t, one("odd", tablestore.Value{Type: tablestore.PropType(99)}))
	// Sixteen members is where the encoder's and decoder's stack buffers
	// spill.
	big := one("p00", tablestore.Int64(0))
	for i := 1; i < 40; i++ {
		big.Props[fmt.Sprintf("p%02d", i)] = tablestore.Int64(int64(i))
		checkAgainstModel(t, big)
	}
}

// wireForms are bodies no encoder writes but a client may send: the
// decoder must rule on each as the model does.
var wireForms = []string{
	``, ` `, `null`, ` null `, `nul`, `nulll`, `true`, `5`, `"s"`, `[]`, `[{}]`, `{}`, ` { } `, `{}x`, `{} {}`, "\ufeff{}",
	`{"PartitionKey":null,"RowKey":null}`, `{"PartitionKey":"p","PartitionKey":null}`, `{"PartitionKey":5}`,
	`{"Timestamp":null}`, `{"Timestamp":"2020-02-29T23:59:59.5+01:00"}`, `{"Timestamp":"2020-02-30T00:00:00Z"}`,
	`{"odata.etag":5}`, `{"odata.etag":null}`, `{"odata.etag":[1,{"a":[]}]}`, `{"odata.etag":"a","odata.etag":7}`,
	`{"a":1,"a":"x"}`, `{"a":[1],"a":2}`, `{"a":2,"a":[1]}`, `{"\u0061":1,"a":2}`, `{"a":2,"\u0061":1}`,
	`{"x@odata.type":"Edm.Int64","x":"9"}`, `{"x":"9","x@odata.type":"Edm.Int64"}`,
	`{"x":"9","x@odata.type":"Edm.Int64","x@odata.type":null}`, `{"x":"9","x@odata.type":5,"x@odata.type":"Edm.Int64"}`,
	`{"x":"9","x@odata.type":5}`, `{"x@odata.type":{}}`, `{"x@odata.type":"Edm.Nope"}`, `{"x":1,"x@odata.type":"Edm.Nope"}`,
	`{"x":"9","x@odata.type":"Edm.\u0049nt64"}`, `{"x":"9","x\u0040odata.type":"Edm.Int64"}`,
	`{"x@odata.typeZ":[1,2],"x":1}`, `{"@odata.type":"Edm.Int64","":"12"}`, `{"a@odata.type@odata.type":"Edm.Int64","a@odata.type":"7"}`,
	`{"x":null}`, `{"x":null,"x@odata.type":"Edm.Double"}`, `{"x":null,"x@odata.type":"Edm.Guid"}`,
	`{"x":null,"x@odata.type":"Edm.Binary"}`, `{"x":null,"x@odata.type":"Edm.Int64"}`, `{"x":null,"x@odata.type":"Edm.DateTime"}`,
	`{"x":"1.5","x@odata.type":"Edm.Double"}`, `{"x":1e999,"x@odata.type":"Edm.Double"}`, `{"x":1e999}`, `{"x":-0}`, `{"x":-0.0}`,
	`{"x":2147483647}`, `{"x":2147483648}`, `{"x":-2147483648}`, `{"x":-2147483649}`, `{"x":1e2}`, `{"x":1.0}`, `{"x":0.5e1}`,
	`{"x":01}`, `{"x":1.}`, `{"x":.5}`, `{"x":-}`, `{"x":+1}`, `{"x":1e}`, `{"x":1e+}`, `{"x":0x10}`, `{"x":1E-2}`,
	`{"x":5,"x@odata.type":"Edm.String"}`, `{"x":true,"x@odata.type":"Edm.Int32"}`, `{"x":"s","x@odata.type":"Edm.Boolean"}`,
	`{"x":"+5","x@odata.type":"Edm.Int64"}`, `{"x":"5_0","x@odata.type":"Edm.Int64"}`, `{"x":" 5","x@odata.type":"Edm.Int64"}`,
	`{"x":"9223372036854775808","x@odata.type":"Edm.Int64"}`, `{"x":5,"x@odata.type":"Edm.Int64"}`,
	`{"x":"AAE=","x@odata.type":"Edm.Binary"}`, `{"x":"AAE","x@odata.type":"Edm.Binary"}`, `{"x":"AA\nE=","x@odata.type":"Edm.Binary"}`,
	`{"x":"AA\r\nE=","x@odata.type":"Edm.Binary"}`, `{"x":"\u0041AE=","x@odata.type":"Edm.Binary"}`, `{"x":"AAE=\n","x@odata.type":"Edm.Binary"}`,
	`{"x":"A=E=","x@odata.type":"Edm.Binary"}`, `{"x":"` + "\xff" + `","x@odata.type":"Edm.Binary"}`, `{"x":"AAE=AAE=","x@odata.type":"Edm.Binary"}`,
	`{"x":"0f8fad5b","x@odata.type":"Edm.Guid"}`, `{"x":7,"x@odata.type":"Edm.Guid"}`,
	`{"x":"2012-01-01T00:00:00Z","x@odata.type":"Edm.DateTime"}`, `{"x":"2012-01-01","x@odata.type":"Edm.DateTime"}`,
	`{"x":[1,2]}`, `{"x":{"y":1}}`, `{"x":[1,2],"x@odata.type":"Edm.Binary"}`,
	`{"s":"\ud83d\ude00 \ud83d \ude00 \ud83dx \ud83d\u0041 \udead"}`, `{"s":"\u00e9\u2028\uFFFF\u0000"}`, `{"s":"` + "a\xffb\xc3" + `"}`,
	`{"s":"\x"}`, `{"s":"\u12"}`, `{"s":"\u12G4"}`, `{"s":"\`, `{"s":"\u`, `{"s":"abc`, `{"s":"a` + "\x01" + `"}`, `{"s":"a` + "\x7f" + `"}`, `{"s":"\/\b\f\n\r\t\"\\"}`,
	"{\"s\"\t:\r\n1 , \"t\" : true}", `{"s":1,}`, `{,}`, `{"s"}`, `{"s":}`, `{"s" 1}`, `{s:1}`, `{'s':1}`, `{"s":1 "t":2}`, `{"s":1`, `{`, `{"s":tru}`, `{"s":truex}`, `{"s":nul}`,
	`{"s":True}`, "{\"s\":1}\x00", "{\"s\":1\x00}", `{"` + "\xff" + `":1}`, `{"` + "\xff" + `":1,"\ufffd":2}`, `{"\ufffd":2,"` + "\xff" + `":1}`,
	`{"x":[}`, `{"x":[1,]}`, `{"x":[1 2]}`, `{"x":{"a"}}`, `{"x":{"a":1,}}`, `{"x":[[[[]]]],"x":1}`, `{"x":[tru],"x":1}`, `{"x":["\x"],"x":1}`,
}

func TestDecoderMatchesModelOnWireForms(t *testing.T) {
	for _, src := range wireForms {
		checkDecodeAgainstModel(t, []byte(src))
	}
	// The nesting limit is encoding/json's: 10 000 levels pass, one more
	// does not — under a key whose value is ignored, the one place a nested
	// value can be accepted at all.
	for _, depth := range []int{9998, 9999, 10000} {
		src := `{"odata.etag":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		checkDecodeAgainstModel(t, []byte(src))
		src = `{"odata.etag":` + strings.Repeat(`{"a":`, depth) + "1" + strings.Repeat("}", depth) + `}`
		checkDecodeAgainstModel(t, []byte(src))
	}
}

// TestPageRoundTrip pins the page forms: AppendPage's bytes are the ones
// json.NewEncoder wrote for {"value": [raw entities]} — null for the empty
// page — and DecodePage returns the entities that went in.
func TestPageRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 10} {
		var in []*tablestore.Entity
		var rows []tablestore.Row
		for i := 0; i < n; i++ {
			e := genEntity{}.Generate(r, 0).Interface().(genEntity).Entity
			for name, v := range e.Props {
				if v.Type == tablestore.TypeDouble && (math.IsNaN(v.F) || math.IsInf(v.F, 0)) {
					delete(e.Props, name)
				}
			}
			in = append(in, e)
			rows = append(rows, tablestore.ReadOnly(e))
		}
		got, err := AppendPage(nil, rows)
		if err != nil {
			t.Fatal(err)
		}
		if want := modelEncodePage(t, in); !bytes.Equal(got, want) {
			t.Fatalf("page of %d differs from the model's\n got: %s\nwant: %s", n, got, want)
		}
		out, err := DecodePage(got)
		if err != nil {
			t.Fatalf("page of %d does not decode: %v", n, err)
		}
		if len(out) != n {
			t.Fatalf("page of %d decoded to %d entities", n, len(out))
		}
		for i := range out {
			// What comes back is what DecodeEntity makes of each entity's
			// own bytes.
			raw, _ := EncodeEntity(in[i])
			want, err := DecodeEntity(raw)
			if err != nil || !sameEntity(out[i], want) {
				t.Fatalf("entity %d of %d: got %+v, want %+v (%v)", i, n, out[i], want, err)
			}
		}
	}
}

func TestDecodePageForms(t *testing.T) {
	for src, want := range map[string]int{
		`{"value":null}`:                                           0,
		" {\"value\" : [ ] }\n":                                    0,
		`{"value":[{"PartitionKey":"p"}]}`:                         1,
		`{"odata.metadata":{"a":[1]},"value":[{},{}],"next":null}`: 2,
		`{"value":[{}],"value":[{},{},{}]}`:                        3,
		`{"value":[{}],"value":null}`:                              0,
		`{"\u0076alue":[{}]}`:                                      1,
		`{}`:                                                       0,
	} {
		got, err := DecodePage([]byte(src))
		if err != nil || len(got) != want {
			t.Errorf("DecodePage(%s) = %d entities, %v; want %d", src, len(got), err, want)
		}
	}
	for _, src := range []string{``, `null`, `[]`, `{"value":{}}`, `{"value":5}`, `{"value":[5]}`, `{"value":[{}]`, `{"value":[{}]}x`,
		`{"value":[{},]}`, `{"value":[{"x":[1]}]}`, `{"value":[{"x@odata.type":1}]}`} {
		if got, err := DecodePage([]byte(src)); err == nil {
			t.Errorf("DecodePage(%s) accepted: %d entities", src, len(got))
		}
	}
}

// The ceilings the live path's allocation budget rests on, on the
// benchmark's entity: keys plus one 1 KiB Binary property. Encoding
// allocates the output; decoding allocates the entity, its property map
// (header, group, the boxed Value), the three strings and the payload's
// bytes.
func TestCodecAllocationCeilings(t *testing.T) {
	e := &tablestore.Entity{
		PartitionKey: "p07",
		RowKey:       "user0000001234",
		Props:        map[string]tablestore.Value{"Field0": tablestore.Binary(payload.Bytes(payload.Synthetic(3, 1024).Materialize()))},
	}
	raw, err := EncodeEntity(e)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { EncodeEntity(e) }); n > 2 {
		t.Errorf("EncodeEntity allocates %.0f times, ceiling 2", n)
	}
	if n := testing.AllocsPerRun(200, func() { DecodeEntity(raw) }); n > 8 {
		t.Errorf("DecodeEntity allocates %.0f times, ceiling 8", n)
	}
}
