package blobstore

import (
	"bytes"
	"testing"
	"testing/quick"

	"azurebench/internal/payload"
)

func TestExtentWriteRead(t *testing.T) {
	var m extentMap
	m.Write(10, payload.Bytes([]byte("hello")))
	got := m.Read(8, 10).Materialize()
	want := []byte{0, 0, 'h', 'e', 'l', 'l', 'o', 0, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestExtentOverlapReplaces(t *testing.T) {
	var m extentMap
	m.Write(0, payload.Bytes([]byte("aaaaaaaa")))
	m.Write(2, payload.Bytes([]byte("bbb")))
	got := string(m.Read(0, 8).Materialize())
	if got != "aabbbaaa" {
		t.Fatalf("got %q, want aabbbaaa", got)
	}
}

func TestExtentClear(t *testing.T) {
	var m extentMap
	m.Write(0, payload.Bytes([]byte("abcdefgh")))
	m.Clear(2, 3)
	got := m.Read(0, 8).Materialize()
	want := []byte{'a', 'b', 0, 0, 0, 'f', 'g', 'h'}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	ranges := m.Ranges()
	if len(ranges) != 2 || ranges[0] != (Range{0, 2}) || ranges[1] != (Range{5, 3}) {
		t.Fatalf("ranges = %v", ranges)
	}
}

func TestExtentRangesCoalesceAdjacent(t *testing.T) {
	var m extentMap
	m.Write(0, payload.Bytes([]byte("ab")))
	m.Write(2, payload.Bytes([]byte("cd")))
	ranges := m.Ranges()
	if len(ranges) != 1 || ranges[0] != (Range{0, 4}) {
		t.Fatalf("ranges = %v, want one coalesced range", ranges)
	}
}

// TestExtentPropertyAgainstFlatModel cross-checks the extent map against a
// flat byte-slice reference model under random write/clear sequences.
func TestExtentPropertyAgainstFlatModel(t *testing.T) {
	const size = 512
	type op struct {
		Clear bool
		Off   uint16
		Len   uint16
		Seed  uint8
	}
	f := func(ops []op) bool {
		var m extentMap
		ref := make([]byte, size)
		for _, o := range ops {
			off := int64(o.Off) % size
			n := int64(o.Len) % (size - off)
			if o.Clear {
				m.Clear(off, n)
				for i := off; i < off+n; i++ {
					ref[i] = 0
				}
			} else {
				data := payload.Synthetic(uint64(o.Seed), n)
				m.Write(off, data)
				copy(ref[off:off+n], data.Materialize())
			}
		}
		return bytes.Equal(m.Read(0, size).Materialize(), ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestExtentCoveredNeverExceedsSpan(t *testing.T) {
	f := func(writes []uint16) bool {
		var m extentMap
		var maxEnd int64
		for _, w := range writes {
			off := int64(w % 1000)
			m.Write(off, payload.Zero(int64(w%97)+1))
			if end := off + int64(w%97) + 1; end > maxEnd {
				maxEnd = end
			}
		}
		// Covered bytes as GetPageRanges reports them.
		var covered int64
		for _, r := range m.Ranges() {
			covered += r.Len
		}
		return covered <= maxEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
