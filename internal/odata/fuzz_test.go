package odata

import (
	"bytes"
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/tablestore"
)

// FuzzDecodeEntity feeds arbitrary bytes to the wire decoder and holds it
// to two things. Against the reference model (model_test.go): the same
// accept/reject verdict and, when accepted, the same entity. And the
// canonical-form invariant on everything it accepts: encoding a decoded
// entity must reach a fixed point in one step. DecodeEntity is the REST
// emulator's parse path for client-supplied JSON, so it must never panic;
// the engine keeps the decoded entity, not its bytes, so what a client
// reads back is the encoder's canonical form of what it wrote, and that
// form must decode to itself.
func FuzzDecodeEntity(f *testing.F) {
	// Seed with one entity exercising every EDM type, plus hand-written
	// wire forms covering the inference and annotation paths.
	e := &tablestore.Entity{
		PartitionKey: "p1",
		RowKey:       "r1",
		Timestamp:    time.Date(2012, 7, 14, 3, 30, 0, 123456789, time.UTC),
		ETag:         `W/"datetime'2012-07-14T03%3A30%3A00Z'"`,
		Props: map[string]tablestore.Value{
			"s":   tablestore.String("hello"),
			"b":   tablestore.Bool(true),
			"i32": tablestore.Int32(-7),
			"i64": tablestore.Int64(1 << 40),
			"f":   tablestore.Double(3.5),
			"t":   tablestore.DateTime(time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC)),
			"g":   tablestore.GUID("c9da6455-213d-42c9-9a79-3e9149a57833"),
			"bin": tablestore.Binary(payload.Bytes([]byte{0x00, 0xff, 0x10})),
		},
	}
	seed, err := EncodeEntity(e)
	if err != nil {
		f.Fatalf("encoding seed entity: %v", err)
	}
	f.Add(seed)
	f.Add([]byte(`{"PartitionKey":"p","RowKey":"r"}`))
	f.Add([]byte(`{"PartitionKey":"p","RowKey":"r","n":12,"x":1e300}`))
	f.Add([]byte(`{"PartitionKey":"p","RowKey":"r","n":"9","n@odata.type":"Edm.Int64"}`))
	f.Add([]byte(`{"PartitionKey":"p","RowKey":"r","Timestamp":"2020-02-29T23:59:59.5Z"}`))
	f.Add([]byte(`{"odata.etag":"abc","bin":"AAE=","bin@odata.type":"Edm.Binary"}`))
	f.Add([]byte(`{"bad@odata.type":"Edm.Nope","bad":1}`))
	for _, src := range wireForms {
		f.Add([]byte(src))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecodeAgainstModel(t, data)
		e, err := DecodeEntity(data)
		if err != nil {
			return // rejected input: no-panic and the model's verdict are all that apply
		}
		raw, err := EncodeEntity(e)
		if err != nil {
			t.Fatalf("decoded entity does not re-encode: %v\ninput: %q", err, data)
		}
		e2, err := DecodeEntity(raw)
		if err != nil {
			t.Fatalf("encoder output does not decode: %v\nencoded: %q", err, raw)
		}
		raw2, err := EncodeEntity(e2)
		if err != nil {
			t.Fatalf("re-encoding round-tripped entity: %v", err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Fatalf("encoding is not canonical after one round-trip:\nfirst:  %s\nsecond: %s\ninput:  %q", raw, raw2, data)
		}
	})
}
