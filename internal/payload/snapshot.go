package payload

import (
	"fmt"

	"azurebench/internal/snapshot"
)

// Save appends p's rope structure to w: a kind tag, then the fields
// that define the content. Synthetic and zero payloads serialize as a
// few words no matter their logical size — the reason whole-engine
// snapshots stay small — while literal bytes are stored verbatim.
func (p Payload) Save(w *snapshot.Writer) {
	w.U8(uint8(p.k))
	switch p.k {
	case kindZero:
		w.I64(p.size)
	case kindBytes:
		w.BytesField(p.data)
	case kindSynthetic:
		w.I64(p.size)
		w.U64(p.seed)
		w.I64(p.off)
	case kindConcat:
		w.Int(len(p.parts))
		for _, part := range p.parts {
			part.Save(w)
		}
	}
}

// Load decodes a payload written by Save.
func Load(r *snapshot.Reader) (Payload, error) {
	k := kind(r.U8())
	if err := r.Err(); err != nil {
		return Payload{}, err
	}
	switch k {
	case kindZero:
		size := r.I64()
		if err := r.Err(); err != nil {
			return Payload{}, err
		}
		if size < 0 {
			return Payload{}, fmt.Errorf("payload: negative zero-payload size %d", size)
		}
		return Zero(size), nil
	case kindBytes:
		return Bytes(r.BytesField()), r.Err()
	case kindSynthetic:
		size := r.I64()
		seed := r.U64()
		off := r.I64()
		if err := r.Err(); err != nil {
			return Payload{}, err
		}
		if size < 0 {
			return Payload{}, fmt.Errorf("payload: negative synthetic size %d", size)
		}
		return Payload{k: kindSynthetic, size: size, seed: seed, off: off}, nil
	case kindConcat:
		n := r.Count()
		if err := r.Err(); err != nil {
			return Payload{}, err
		}
		parts := make([]Payload, 0, n)
		for i := 0; i < n; i++ {
			part, err := Load(r)
			if err != nil {
				return Payload{}, err
			}
			parts = append(parts, part)
		}
		return Concat(parts...), nil
	}
	return Payload{}, fmt.Errorf("payload: unknown kind %d in snapshot", k)
}
