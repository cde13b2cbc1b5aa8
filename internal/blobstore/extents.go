package blobstore

import (
	"sort"

	"azurebench/internal/payload"
)

// Range is a half-open byte range [Off, Off+Len).
type Range struct {
	Off int64
	Len int64
}

// End returns Off+Len.
func (r Range) End() int64 { return r.Off + r.Len }

// extentMap is a sparse byte store: a sorted list of non-overlapping,
// non-empty extents. Gaps read as zero. It backs page blobs (and the page
// semantics of ClearPages).
type extentMap struct {
	exts []extent
}

type extent struct {
	off int64
	p   payload.Payload
}

func (e extent) end() int64 { return e.off + e.p.Len() }

// search returns the index of the first extent whose end is after off.
func (m *extentMap) search(off int64) int {
	return sort.Search(len(m.exts), func(i int) bool { return m.exts[i].end() > off })
}

// Write overlays p at off, replacing any previously written bytes in
// [off, off+p.Len()).
func (m *extentMap) Write(off int64, p payload.Payload) {
	if p.Len() == 0 {
		return
	}
	m.Clear(off, p.Len())
	i := m.search(off)
	m.exts = append(m.exts, extent{})
	copy(m.exts[i+1:], m.exts[i:])
	m.exts[i] = extent{off: off, p: p}
}

// Clear removes coverage of [off, off+n); the range subsequently reads as
// zero.
func (m *extentMap) Clear(off, n int64) {
	if n <= 0 {
		return
	}
	end := off + n
	i := m.search(off)
	var out []extent
	out = append(out, m.exts[:i]...)
	for ; i < len(m.exts); i++ {
		e := m.exts[i]
		if e.off >= end {
			out = append(out, m.exts[i:]...)
			break
		}
		// e overlaps [off, end): keep the non-overlapping flanks.
		if e.off < off {
			out = append(out, extent{off: e.off, p: e.p.Slice(0, off-e.off)})
		}
		if e.end() > end {
			out = append(out, extent{off: end, p: e.p.Slice(end-e.off, e.end()-end)})
		}
	}
	m.exts = out
}

// Read assembles [off, off+n) with gaps zero-filled.
func (m *extentMap) Read(off, n int64) payload.Payload {
	if n <= 0 {
		return payload.Payload{}
	}
	end := off + n
	var parts []payload.Payload
	pos := off
	for i := m.search(off); i < len(m.exts) && m.exts[i].off < end; i++ {
		e := m.exts[i]
		if e.off > pos {
			parts = append(parts, payload.Zero(e.off-pos))
			pos = e.off
		}
		lo := pos - e.off
		hi := min(end, e.end()) - e.off
		parts = append(parts, e.p.Slice(lo, hi-lo))
		pos = e.off + hi
	}
	if pos < end {
		parts = append(parts, payload.Zero(end-pos))
	}
	return payload.Concat(parts...)
}

// Ranges returns the covered ranges, coalescing adjacent extents.
func (m *extentMap) Ranges() []Range {
	var out []Range
	for _, e := range m.exts {
		if len(out) > 0 && out[len(out)-1].End() == e.off {
			out[len(out)-1].Len += e.p.Len()
			continue
		}
		out = append(out, Range{Off: e.off, Len: e.p.Len()})
	}
	return out
}
