package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"
	"unicode/utf8"
)

// writeFile renders a parsed File back into the JSONL form: markers, one
// folded eviction line, then the ops through the real exporter.
func writeFile(t *testing.T, f File) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, name := range f.Sections {
		if err := WriteSection(&buf, name); err != nil {
			t.Fatal(err)
		}
	}
	if f.Dropped > 0 || f.EvictedBefore > 0 {
		if err := json.NewEncoder(&buf).Encode(jsonEviction{f.Dropped, int64(f.EvictedBefore)}); err != nil {
			t.Fatal(err)
		}
	}
	l := New(len(f.Ops) + 1)
	for _, op := range f.Ops {
		l.Record(op)
	}
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadJSONL checks the -tracefile format from both ends. Arbitrary
// bytes must never panic the reader, and whatever it accepts must be a
// fixed point: written back out and read again it is the same File.
// Arbitrary operations and section names — control bytes, quotes, angle
// brackets, invalid UTF-8, negative and repeated spans — must come back
// from write→read with their numbers intact and, when they were valid
// UTF-8, their strings intact and a re-export that is the same bytes
// (encoding/json turns an invalid byte into U+FFFD, which it then spells
// differently, so such a file settles one generation later).
func FuzzReadJSONL(f *testing.F) {
	sample := `{"experiment":"faults"}
{"dropped":7,"evicted_before_ns":1000000}
{"start_ns":1000,"dur_ns":5000,"client":"worker0","service":"queue","op":"PutMessage","bytes":512,"err":"ServerBusy","fault":"timeout","tag":"t","trace_id":"aa","span_id":"bb","parent_id":"cc","spans":{"nic-in":2000,"server":3000}}

{}
{"start_ns":0,"dur_ns":0,"service":"","op":"x"}
`
	f.Add([]byte(sample), "faults", int64(1000), int64(5000), int64(512), "worker0", "queue", "PutMessage", "ServerBusy", "aa", "server", int64(3000))
	f.Add([]byte(`{"experiment":"ycsb\x01c"}`), "ycsb\x01\"<c", int64(-1), int64(0), int64(0), "", "", "", "", "", "", int64(0))
	f.Add([]byte("{\"op\":\"\xff\",\"spans\":{\"\":-1}}\nnot json"), "\xff", int64(1)<<62, int64(1)<<62, int64(-5), "\x00", "<", ">", "&", " ", "", int64(-3))

	f.Fuzz(func(t *testing.T, file []byte, section string, start, dur, nbytes int64,
		client, service, name, code, id, stage string, stageDur int64) {
		// Reader side: no panic, and accepted input is a fixed point.
		if parsed, err := ReadJSONL(bytes.NewReader(file)); err == nil {
			again, err := ReadJSONL(bytes.NewReader(writeFile(t, parsed)))
			if err != nil {
				t.Fatalf("re-reading a written file: %v", err)
			}
			if !reflect.DeepEqual(parsed, again) {
				t.Fatalf("read→write→read changed the file:\nfirst:  %+v\nsecond: %+v", parsed, again)
			}
		}

		// Writer side. A line with neither service nor op reads as
		// metadata, so every op here has at least a name.
		if service == "" && name == "" {
			name = "op"
		}
		full := Op{
			Start: time.Duration(start), Duration: time.Duration(dur),
			Client: client, Service: service, Name: name, Bytes: nbytes,
			Err: code, Fault: code, Tag: client,
			TraceID: id, SpanID: id, ParentID: id,
			Spans: []Span{{stage, time.Duration(stageDur)}, {stage + "x", -time.Duration(stageDur)}, {stage, 1}},
		}
		bare := Op{Service: service, Name: name}
		var wire bytes.Buffer
		if section != "" { // an unnamed marker is not a section
			if err := WriteSection(&wire, section); err != nil {
				t.Fatal(err)
			}
		}
		l := New(0)
		l.Record(full)
		l.Record(bare)
		if err := l.WriteJSONL(&wire); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSONL(bytes.NewReader(wire.Bytes()))
		if err != nil {
			t.Fatalf("reading what WriteJSONL wrote: %v\n%s", err, wire.Bytes())
		}
		if len(got.Ops) != 2 || got.Dropped != 0 {
			t.Fatalf("read %d ops (dropped %d), wrote 2:\n%s", len(got.Ops), got.Dropped, wire.Bytes())
		}
		op := got.Ops[0]
		if op.Start != full.Start || op.Duration != full.Duration || op.Bytes != full.Bytes {
			t.Fatalf("numbers changed: wrote %+v, read %+v", full, op)
		}
		if d := op.SpanDur(stage); utf8.ValidString(stage) && d != time.Duration(stageDur)+1 {
			t.Fatalf("stage %q = %v, want the repeats summed to %v", stage, d, time.Duration(stageDur)+1)
		}
		if len(got.Ops[1].Spans) != 0 {
			t.Fatalf("span-less op read back with spans: %+v", got.Ops[1])
		}
		valid := utf8.ValidString(section) && utf8.ValidString(stage)
		for _, s := range []struct{ wrote, read string }{
			{client, op.Client}, {service, op.Service}, {name, op.Name}, {code, op.Err},
			{code, op.Fault}, {client, op.Tag}, {id, op.TraceID}, {id, op.SpanID}, {id, op.ParentID},
		} {
			if !utf8.ValidString(s.wrote) {
				valid = false
			} else if s.read != s.wrote {
				t.Fatalf("string changed: wrote %q, read %q", s.wrote, s.read)
			}
		}
		if section != "" && utf8.ValidString(section) && (len(got.Sections) != 1 || got.Sections[0] != section) {
			t.Fatalf("section %q read back as %q", section, got.Sections)
		}
		again := writeFile(t, got)
		if valid && !bytes.Equal(again, wire.Bytes()) {
			t.Fatalf("write→read→write is not a fixed point:\nfirst:  %s\nsecond: %s", wire.Bytes(), again)
		}
		if reread, err := ReadJSONL(bytes.NewReader(again)); err != nil || !reflect.DeepEqual(reread, got) {
			t.Fatalf("read→write→read changed the file (err %v):\nfirst:  %+v\nsecond: %+v", err, got, reread)
		}
	})
}
