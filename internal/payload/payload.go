// Package payload provides an immutable, rope-like byte container used as
// the data carrier throughout the storage engines.
//
// A Payload can hold literal bytes, all-zero ranges, or *synthetic* content
// derived deterministically from a seed. Synthetic payloads carry no
// backing storage: a 100 MB upload in the simulated cloud costs a few words
// of memory, yet every byte is still well-defined and reproducible, so
// round-trip tests can verify content integrity exactly. Slicing and
// concatenation are O(1) (they build a rope); Materialize produces real
// bytes on demand.
package payload

import (
	"fmt"
	"hash/fnv"
)

type kind uint8

const (
	kindZero kind = iota
	kindBytes
	kindSynthetic
	kindConcat
)

// Payload is an immutable byte string. The zero value is an empty payload.
type Payload struct {
	k     kind
	size  int64
	data  []byte    // kindBytes
	seed  uint64    // kindSynthetic: content stream id
	off   int64     // kindSynthetic: offset into the seed's stream
	parts []Payload // kindConcat: non-empty parts
}

// Zero returns a payload of size zero-bytes.
func Zero(size int64) Payload {
	if size < 0 {
		panic("payload: negative size")
	}
	return Payload{k: kindZero, size: size}
}

// Bytes wraps b. The payload aliases b; callers must not mutate b
// afterwards.
func Bytes(b []byte) Payload {
	return Payload{k: kindBytes, size: int64(len(b)), data: b}
}

// String wraps s.
func String(s string) Payload { return Bytes([]byte(s)) }

// Synthetic returns a payload of the given size whose content is a
// deterministic pseudo-random function of seed. Two synthetic payloads with
// the same seed and size are byte-for-byte equal.
func Synthetic(seed uint64, size int64) Payload {
	if size < 0 {
		panic("payload: negative size")
	}
	return Payload{k: kindSynthetic, size: size, seed: seed}
}

// Concat joins parts into one payload without copying.
func Concat(parts ...Payload) Payload {
	keep := make([]Payload, 0, len(parts))
	var total int64
	for _, p := range parts {
		if p.size == 0 {
			continue
		}
		total += p.size
		keep = append(keep, p)
	}
	switch len(keep) {
	case 0:
		return Payload{}
	case 1:
		return keep[0]
	}
	return Payload{k: kindConcat, size: total, parts: keep}
}

// Len returns the payload length in bytes.
func (p Payload) Len() int64 { return p.size }

// Slice returns the sub-payload [off, off+n). It panics if the range is out
// of bounds.
func (p Payload) Slice(off, n int64) Payload {
	if off < 0 || n < 0 || off+n > p.size {
		panic(fmt.Sprintf("payload: slice [%d,%d) out of bounds (len %d)", off, off+n, p.size))
	}
	if n == 0 {
		return Payload{}
	}
	if off == 0 && n == p.size {
		return p
	}
	switch p.k {
	case kindZero:
		return Zero(n)
	case kindBytes:
		return Bytes(p.data[off : off+n])
	case kindSynthetic:
		return Payload{k: kindSynthetic, size: n, seed: p.seed, off: p.off + off}
	case kindConcat:
		var parts []Payload
		pos := int64(0)
		for _, part := range p.parts {
			end := pos + part.size
			if end <= off {
				pos = end
				continue
			}
			if pos >= off+n {
				break
			}
			lo := max(off, pos) - pos
			hi := min(off+n, end) - pos
			parts = append(parts, part.Slice(lo, hi-lo))
			pos = end
		}
		return Concat(parts...)
	}
	panic("payload: unknown kind")
}

// At returns the byte at index i.
func (p Payload) At(i int64) byte {
	if i < 0 || i >= p.size {
		panic(fmt.Sprintf("payload: index %d out of bounds (len %d)", i, p.size))
	}
	switch p.k {
	case kindZero:
		return 0
	case kindBytes:
		return p.data[i]
	case kindSynthetic:
		return syntheticByte(p.seed, p.off+i)
	case kindConcat:
		for _, part := range p.parts {
			if i < part.size {
				return part.At(i)
			}
			i -= part.size
		}
	}
	panic("payload: unknown kind")
}

// Materialize renders the payload into a fresh byte slice.
func (p Payload) Materialize() []byte {
	out := make([]byte, p.size)
	p.render(out)
	return out
}

// AsBytes returns the content as one byte slice without copying when the
// payload is a single literal run (what Bytes wrapped, or a Slice of it),
// and materialized otherwise. The result may alias the payload's backing
// array: callers must treat it as read-only.
func (p Payload) AsBytes() []byte {
	if p.k == kindBytes {
		return p.data
	}
	return p.Materialize()
}

func (p Payload) render(out []byte) {
	switch p.k {
	case kindZero:
		// out is already zeroed (fresh) or must be zeroed explicitly.
		for i := range out {
			out[i] = 0
		}
	case kindBytes:
		copy(out, p.data)
	case kindSynthetic:
		renderSynthetic(out, p.seed, p.off)
	case kindConcat:
		pos := int64(0)
		for _, part := range p.parts {
			part.render(out[pos : pos+part.size])
			pos += part.size
		}
	}
}

// Equal reports whether a and b have identical content.
func Equal(a, b Payload) bool {
	if a.size != b.size {
		return false
	}
	// Fast path: identical literal backing.
	if a.k == kindBytes && b.k == kindBytes {
		for i := range a.data {
			if a.data[i] != b.data[i] {
				return false
			}
		}
		return true
	}
	for i := int64(0); i < a.size; i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

// Checksum returns a 64-bit FNV-1a checksum of the content. Synthetic
// content is generated on the fly in fixed-size chunks.
func (p Payload) Checksum() uint64 {
	h := fnv.New64a()
	const chunk = 64 * 1024
	buf := make([]byte, min(chunk, p.size))
	for pos := int64(0); pos < p.size; {
		n := min(chunk, p.size-pos)
		sub := p.Slice(pos, n)
		sub.render(buf[:n])
		h.Write(buf[:n])
		pos += n
	}
	return h.Sum64()
}

// syntheticByte returns byte i of the infinite stream identified by seed.
func syntheticByte(seed uint64, i int64) byte {
	word := mix(seed + uint64(i)/8)
	return byte(word >> (8 * (uint64(i) % 8)))
}

func renderSynthetic(out []byte, seed uint64, off int64) {
	for i := range out {
		out[i] = syntheticByte(seed, off+int64(i))
	}
}

// mix is the splitmix64 finalizer.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
