package payload

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestZero(t *testing.T) {
	p := Zero(10)
	if p.Len() != 10 {
		t.Fatalf("Len = %d", p.Len())
	}
	for _, b := range p.Materialize() {
		if b != 0 {
			t.Fatal("zero payload has non-zero byte")
		}
	}
}

func TestBytesRoundTrip(t *testing.T) {
	in := []byte("hello, azure")
	p := Bytes(in)
	if !bytes.Equal(p.Materialize(), in) {
		t.Fatal("materialize mismatch")
	}
	if p.At(0) != 'h' || p.At(int64(len(in)-1)) != 'e' {
		t.Fatal("At mismatch")
	}
}

func TestSyntheticDeterministic(t *testing.T) {
	a := Synthetic(42, 1000).Materialize()
	b := Synthetic(42, 1000).Materialize()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different content")
	}
	c := Synthetic(43, 1000).Materialize()
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical content")
	}
}

func TestSyntheticSliceMatchesMaterializedSlice(t *testing.T) {
	p := Synthetic(7, 4096)
	whole := p.Materialize()
	if err := quick.Check(func(o, n uint16) bool {
		off := int64(o) % p.Len()
		ln := int64(n) % (p.Len() - off)
		sub := p.Slice(off, ln)
		return bytes.Equal(sub.Materialize(), whole[off:off+ln])
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcatAndSlice(t *testing.T) {
	p := Concat(Bytes([]byte("abc")), Zero(2), Bytes([]byte("xyz")))
	want := []byte("abc\x00\x00xyz")
	if !bytes.Equal(p.Materialize(), want) {
		t.Fatalf("concat = %q, want %q", p.Materialize(), want)
	}
	if got := p.Slice(2, 4).Materialize(); !bytes.Equal(got, []byte("c\x00\x00x")) {
		t.Fatalf("slice = %q", got)
	}
}

func TestConcatSkipsEmptyAndSingles(t *testing.T) {
	p := Concat(Payload{}, Bytes([]byte("a")), Payload{})
	if p.Len() != 1 || p.At(0) != 'a' {
		t.Fatal("concat of single non-empty part wrong")
	}
	if Concat().Len() != 0 {
		t.Fatal("empty concat not empty")
	}
}

func TestSliceBoundsPanics(t *testing.T) {
	p := Bytes([]byte("abc"))
	for _, c := range []struct{ off, n int64 }{{-1, 1}, {0, 4}, {2, 2}, {0, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Slice(%d,%d) did not panic", c.off, c.n)
				}
			}()
			p.Slice(c.off, c.n)
		}()
	}
}

func TestAtBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("At out of bounds did not panic")
		}
	}()
	Bytes([]byte("a")).At(1)
}

func TestEqual(t *testing.T) {
	a := Synthetic(9, 512)
	b := Concat(a.Slice(0, 100), a.Slice(100, 412))
	if !Equal(a, b) {
		t.Fatal("sliced-and-reconcatenated payload not equal to original")
	}
	if Equal(a, Synthetic(9, 511)) {
		t.Fatal("different lengths equal")
	}
	if Equal(Bytes([]byte("ab")), Bytes([]byte("ac"))) {
		t.Fatal("different bytes equal")
	}
	if !Equal(Bytes([]byte("ab")), Bytes([]byte("ab"))) {
		t.Fatal("equal bytes not equal")
	}
}

func TestChecksumMatchesMaterializedContent(t *testing.T) {
	p := Synthetic(1234, 200_000) // spans multiple checksum chunks
	viaBytes := Bytes(p.Materialize())
	if p.Checksum() != viaBytes.Checksum() {
		t.Fatal("checksum differs between synthetic and materialized form")
	}
}

func TestChecksumDiffersForDifferentContent(t *testing.T) {
	if Synthetic(1, 1024).Checksum() == Synthetic(2, 1024).Checksum() {
		t.Fatal("checksum collision for different seeds (unlikely; indicates a bug)")
	}
}

func TestRenderIntoDirtyBuffer(t *testing.T) {
	// Checksum renders into a reused buffer; zero ranges must overwrite.
	p := Concat(Bytes([]byte{0xff, 0xff}), Zero(2))
	got := p.Materialize()
	want := []byte{0xff, 0xff, 0, 0}
	if !bytes.Equal(got, want) {
		t.Fatalf("got %v want %v", got, want)
	}
	// And via checksum path equality with literal bytes.
	if p.Checksum() != Bytes(want).Checksum() {
		t.Fatal("checksum mismatch for zero tail")
	}
}

func TestNegativeSizePanics(t *testing.T) {
	for _, f := range []func(){func() { Zero(-1) }, func() { Synthetic(1, -1) }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("negative size did not panic")
				}
			}()
			f()
		}()
	}
}

func TestPropertySliceOfSliceConsistent(t *testing.T) {
	base := Concat(Synthetic(5, 300), Bytes([]byte("0123456789")), Zero(90))
	whole := base.Materialize()
	if err := quick.Check(func(a, b, c, d uint16) bool {
		o1 := int64(a) % base.Len()
		n1 := int64(b) % (base.Len() - o1)
		s1 := base.Slice(o1, n1)
		if n1 == 0 {
			return s1.Len() == 0
		}
		o2 := int64(c) % n1
		n2 := int64(d) % (n1 - o2)
		s2 := s1.Slice(o2, n2)
		return bytes.Equal(s2.Materialize(), whole[o1+o2:o1+o2+n2])
	}, nil); err != nil {
		t.Fatal(err)
	}
}
