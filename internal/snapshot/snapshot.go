// Package snapshot is a versioned, self-describing binary codec for
// checkpointing the full simulation state. A snapshot file is a flat
// sequence of named sections, each written by one stateful subsystem in
// a deterministic field order through the typed Writer, and each
// independently integrity-checked:
//
//	magic "AZSNAP1\n" | u32 version
//	repeat:  u32 nameLen | name | u32 payloadLen | payload | u32 crc32(payload)
//	u32 0xFFFFFFFF (end marker)
//	sha256 over every preceding byte
//
// All integers are big-endian. Sections appear in the order they were
// added, so encoding the same state twice yields identical bytes — the
// property the digest-policed restore tests lean on. The package
// deliberately imports nothing from the rest of the repo: every
// subsystem (sim kernel included) can depend on it without cycles.
package snapshot

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"sort"
	"time"
)

// Magic and Version identify the file format. Version bumps whenever
// the framing (not section contents) changes shape.
const (
	Magic   = "AZSNAP1\n"
	Version = 1
)

// endMarker terminates the section list; no real section name can be
// 2^32-1 bytes long.
const endMarker = 0xFFFFFFFF

// maxSectionBytes bounds a single section payload (and name) so a
// corrupted or adversarial length prefix cannot drive allocation to the
// full u32 range. 1 GiB is far above any real snapshot section.
const maxSectionBytes = 1 << 30

// ErrCorrupt wraps every integrity failure (bad magic, short file, CRC
// or SHA mismatch) so callers can distinguish corruption from
// state-shape errors raised by subsystem Load methods.
var ErrCorrupt = errors.New("snapshot: corrupt")

// A Snapshotter is one stateful subsystem. Save appends the subsystem's
// complete deterministic state to w in a fixed field order; Load
// restores it from a section decoded by the same order. Save must be
// read-only: checkpoints are taken mid-run and must not perturb the
// simulation they observe.
type Snapshotter interface {
	// SnapshotSection names this subsystem's section in the file.
	SnapshotSection() string
	// Save appends the subsystem state to w.
	Save(w *Writer)
	// Load restores the subsystem state from r.
	Load(r *Reader) error
}

// Writer accumulates one section's payload with typed, fixed-order
// appends.
type Writer struct {
	buf []byte
}

// Bytes returns the accumulated payload.
func (w *Writer) Bytes() []byte { return w.buf }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a big-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = binary.BigEndian.AppendUint32(w.buf, v)
}

// U64 appends a big-endian uint64.
func (w *Writer) U64(v uint64) {
	w.buf = binary.BigEndian.AppendUint64(w.buf, v)
}

// I64 appends a big-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 appends a float64 by bit pattern.
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Duration appends a time.Duration as int64 nanoseconds.
func (w *Writer) Duration(v time.Duration) { w.I64(int64(v)) }

// Time appends a time.Time as UnixNano, with the zero time as a
// distinguished sentinel so Load round-trips t.IsZero() exactly.
func (w *Writer) Time(t time.Time) {
	if t.IsZero() {
		w.Bool(false)
		return
	}
	w.Bool(true)
	w.I64(t.UnixNano())
}

// StringMap appends a map's size, then each key and value in sorted key
// order — the order every map in a section is written in, so identical
// states encode identically.
func (w *Writer) StringMap(m map[string]string) {
	w.Int(len(m))
	for _, k := range SortedKeys(m) {
		w.String(k)
		w.String(m[k])
	}
}

// SortedKeys returns m's keys in ascending order: how a Save walks a map.
func SortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Bytes appends a length-prefixed byte slice.
func (w *Writer) BytesField(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes one section's payload in the same order it was
// written. Errors are sticky: the first failure poisons the reader and
// every later read returns the zero value, so Load methods can decode
// a whole struct and check Err once.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader wraps a raw section payload.
func NewReader(payload []byte) *Reader { return &Reader{buf: payload} }

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many undecoded bytes are left.
func (r *Reader) Remaining() int { return len(r.buf) - r.off }

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.buf) {
		r.err = fmt.Errorf("%w: section truncated (want %d bytes, have %d)", ErrCorrupt, n, len(r.buf)-r.off)
		return nil
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b
}

// U8 decodes one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool decodes a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 decodes a big-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

// U64 decodes a big-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

// I64 decodes a big-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int decodes an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// Count decodes the length a Save wrote before a run of elements. Every
// element takes at least one byte, so a count that is negative or larger
// than the bytes left is not one Save wrote: it sets the sticky error and
// returns 0, which bounds a loader's loop by the section's size.
func (r *Reader) Count() int {
	n := r.Int()
	if r.err == nil && (n < 0 || n > r.Remaining()) {
		r.err = fmt.Errorf("%w: count %d exceeds the %d bytes left", ErrCorrupt, n, r.Remaining())
	}
	if r.err != nil {
		return 0
	}
	return n
}

// StringMap decodes a map written by Writer.StringMap; an empty map
// decodes as nil.
func (r *Reader) StringMap() map[string]string {
	n := r.Count()
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	for i := 0; i < n; i++ {
		k := r.String()
		m[k] = r.String()
	}
	return m
}

// F64 decodes a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Duration decodes a time.Duration.
func (r *Reader) Duration() time.Duration { return time.Duration(r.I64()) }

// Time decodes a time.Time written by Writer.Time.
func (r *Reader) Time() time.Time {
	if !r.Bool() {
		return time.Time{}
	}
	ns := r.I64()
	if r.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// BytesField decodes a length-prefixed byte slice.
func (r *Reader) BytesField() []byte {
	n := r.U32()
	if r.err != nil {
		return nil
	}
	if n > maxSectionBytes {
		r.err = fmt.Errorf("%w: byte field length %d exceeds limit", ErrCorrupt, n)
		return nil
	}
	b := r.take(int(n))
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}

// String decodes a length-prefixed string.
func (r *Reader) String() string {
	n := r.U32()
	if r.err != nil {
		return ""
	}
	if n > maxSectionBytes {
		r.err = fmt.Errorf("%w: string length %d exceeds limit", ErrCorrupt, n)
		return ""
	}
	b := r.take(int(n))
	return string(b)
}

// Close verifies the section was consumed exactly: trailing bytes mean
// the writer and reader disagree about the field order, which is a
// versioning bug worth failing loudly on.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.buf) {
		return fmt.Errorf("%w: %d trailing bytes after decode", ErrCorrupt, len(r.buf)-r.off)
	}
	return nil
}

// Section is one named, framed payload inside a File. Sections decoded
// from bytes carry Payload directly; sections built with Add pull their
// bytes from the live Writer at encode time.
type Section struct {
	Name    string
	Payload []byte

	writer *Writer
}

// File is an ordered collection of sections plus the encode/decode
// framing. The zero value is an empty file ready for Add.
type File struct {
	Sections []Section
}

// Add appends a new named section and returns the Writer that fills it.
// The payload is captured when the file is encoded, so callers write
// fields after Add in the natural order.
func (f *File) Add(name string) *Writer {
	f.Sections = append(f.Sections, Section{Name: name})
	w := &Writer{}
	idx := len(f.Sections) - 1
	f.Sections[idx].Payload = nil
	// The Writer mutates its own buffer; Encode pulls the final bytes
	// through the closure-free pointer stored here.
	f.Sections[idx].writer = w
	return w
}

// Section returns the named section, or nil.
func (f *File) Section(name string) *Section {
	for i := range f.Sections {
		if f.Sections[i].Name == name {
			return &f.Sections[i]
		}
	}
	return nil
}

// Reader returns a Reader over the named section's payload, or an
// error naming the missing section.
func (f *File) Reader(name string) (*Reader, error) {
	s := f.Section(name)
	if s == nil {
		return nil, fmt.Errorf("snapshot: missing section %q", name)
	}
	return NewReader(s.payload()), nil
}

// Encode renders the file to its canonical byte form.
func (f *File) Encode() []byte {
	out := make([]byte, 0, 256)
	out = append(out, Magic...)
	out = binary.BigEndian.AppendUint32(out, Version)
	for i := range f.Sections {
		s := &f.Sections[i]
		p := s.payload()
		out = binary.BigEndian.AppendUint32(out, uint32(len(s.Name)))
		out = append(out, s.Name...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(p)))
		out = append(out, p...)
		out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(p))
	}
	out = binary.BigEndian.AppendUint32(out, endMarker)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}

// Decode parses and integrity-checks a canonical byte form, replacing
// f's sections.
func Decode(data []byte) (*File, error) {
	if len(data) < len(Magic)+4+4+sha256.Size {
		return nil, fmt.Errorf("%w: file too short (%d bytes)", ErrCorrupt, len(data))
	}
	body, tail := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	sum := sha256.Sum256(body)
	if string(sum[:]) != string(tail) {
		return nil, fmt.Errorf("%w: whole-file sha256 mismatch", ErrCorrupt)
	}
	if string(body[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	r := &Reader{buf: body, off: len(Magic)}
	if v := r.U32(); v != Version {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("snapshot: unsupported version %d (want %d)", v, Version)
	}
	f := &File{}
	for {
		nameLen := r.U32()
		if r.err != nil {
			return nil, r.err
		}
		if nameLen == endMarker {
			break
		}
		if nameLen > maxSectionBytes {
			return nil, fmt.Errorf("%w: section name length %d exceeds limit", ErrCorrupt, nameLen)
		}
		name := string(r.take(int(nameLen)))
		plen := r.U32()
		if r.err != nil {
			return nil, r.err
		}
		if plen > maxSectionBytes {
			return nil, fmt.Errorf("%w: section %q payload length %d exceeds limit", ErrCorrupt, name, plen)
		}
		payload := r.take(int(plen))
		crc := r.U32()
		if r.err != nil {
			return nil, r.err
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("%w: crc mismatch in section %q", ErrCorrupt, name)
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		f.Sections = append(f.Sections, Section{Name: name, Payload: cp})
	}
	if r.Remaining() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after end marker", ErrCorrupt, r.Remaining())
	}
	return f, nil
}

// WriteFile encodes the file to path.
func (f *File) WriteFile(path string) error {
	return os.WriteFile(path, f.Encode(), 0o644)
}

// ReadFile reads, parses and integrity-checks a snapshot at path.
func ReadFile(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}

// payload returns the section bytes, pulling from the live Writer when
// the section was built with Add.
func (s *Section) payload() []byte {
	if s.writer != nil {
		return s.writer.buf
	}
	return s.Payload
}

// Wrap builds a Snapshotter from a section name and a Save/Load pair —
// the glue for subsystems whose section name is assigned by the
// assembler (e.g. the two region clouds of a geo-replicated account
// must register the same engine types under distinct names).
func Wrap(name string, save func(*Writer), load func(*Reader) error) Snapshotter {
	return wrapped{name: name, save: save, load: load}
}

type wrapped struct {
	name string
	save func(*Writer)
	load func(*Reader) error
}

func (s wrapped) SnapshotSection() string { return s.name }
func (s wrapped) Save(w *Writer)          { s.save(w) }
func (s wrapped) Load(r *Reader) error    { return s.load(r) }

// Registry is an ordered set of Snapshotters. SaveAll writes one
// section per registered subsystem in registration order; LoadAll
// restores each from its section; VerifyAll re-saves the live state and
// byte-compares it against the file, naming the first divergent section
// — the integrity gate behind replay-verified restore.
type Registry struct {
	items []Snapshotter
}

// Register appends s. Registration order is section order, so register
// in a deterministic sequence.
func (reg *Registry) Register(s Snapshotter) { reg.items = append(reg.items, s) }

// SaveAll appends every registered subsystem's section to f.
func (reg *Registry) SaveAll(f *File) {
	for _, s := range reg.items {
		s.Save(f.Add(s.SnapshotSection()))
	}
}

// LoadAll restores every registered subsystem from its section in f.
// Every registered section must be present and fully consumed.
func (reg *Registry) LoadAll(f *File) error {
	for _, s := range reg.items {
		name := s.SnapshotSection()
		r, err := f.Reader(name)
		if err != nil {
			return err
		}
		if err := s.Load(r); err != nil {
			return fmt.Errorf("snapshot: load %q: %w", name, err)
		}
		if err := r.Close(); err != nil {
			return fmt.Errorf("snapshot: load %q: %w", name, err)
		}
	}
	return nil
}

// VerifyAll re-saves the live state of every registered subsystem and
// byte-compares each section against f, returning an error naming the
// first divergent section. Equal states produce equal bytes because
// Save is deterministic, so a mismatch pinpoints exactly which
// subsystem's replayed state drifted from the checkpoint.
func (reg *Registry) VerifyAll(f *File) error {
	for _, s := range reg.items {
		name := s.SnapshotSection()
		want := f.Section(name)
		if want == nil {
			return fmt.Errorf("snapshot: verify: missing section %q", name)
		}
		w := &Writer{}
		s.Save(w)
		if string(w.buf) != string(want.payload()) {
			return fmt.Errorf("snapshot: verify: section %q diverged from checkpoint (replayed %d bytes, saved %d)",
				name, len(w.buf), len(want.payload()))
		}
	}
	return nil
}
