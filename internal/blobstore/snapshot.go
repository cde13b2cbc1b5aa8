package blobstore

import (
	"azurebench/internal/payload"
	// Aliased: this package's own `snapshot` type is the blob-snapshot
	// feature, unrelated to the checkpoint codec.
	snap "azurebench/internal/snapshot"
)

// Save appends the full account state — containers, blobs, staged
// blocks, page extents, leases and blob snapshots — in sorted name
// order so identical states encode identically. Payloads serialize as
// rope descriptors, so even multi-GB synthetic blobs cost a few words.
func (s *Store) Save(w *snap.Writer) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.etags.Save(w)
	names := snap.SortedKeys(s.containers)
	w.Int(len(names))
	for _, name := range names {
		c := s.containers[name]
		w.String(c.name)
		w.Time(c.created)
		w.StringMap(c.metadata)
		blobNames := snap.SortedKeys(c.blobs)
		w.Int(len(blobNames))
		for _, bn := range blobNames {
			saveBlob(w, c.blobs[bn])
		}
	}
}

// Load restores an account saved by Save, replacing all live state.
func (s *Store) Load(r *snap.Reader) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.etags.Load(r); err != nil {
		return err
	}
	nc := r.Count()
	containers := make(map[string]*container, nc)
	for i := 0; i < nc; i++ {
		c := &container{
			name:     r.String(),
			created:  r.Time(),
			metadata: r.StringMap(),
		}
		nb := r.Count()
		c.blobs = make(map[string]*blob, nb)
		for j := 0; j < nb; j++ {
			b, err := loadBlob(r)
			if err != nil {
				return err
			}
			c.blobs[b.name] = b
		}
		containers[c.name] = c
	}
	if err := r.Err(); err != nil {
		return err
	}
	s.containers = containers
	return nil
}

func saveBlob(w *snap.Writer, b *blob) {
	w.String(b.name)
	w.U8(uint8(b.kind))
	w.String(b.etag)
	w.Time(b.lastModified)
	w.String(b.contentType)
	w.StringMap(b.metadata)

	w.Int(len(b.committed))
	for _, cb := range b.committed {
		w.String(cb.id)
		w.I64(cb.off)
		cb.p.Save(w)
	}
	w.I64(b.blockSize)
	// stageOrder is the canonical ordering of the uncommitted map.
	w.Int(len(b.stageOrder))
	for _, id := range b.stageOrder {
		w.String(id)
		b.uncommitted[id].Save(w)
	}

	w.I64(b.pageCap)
	w.Int(len(b.pages.exts))
	for _, e := range b.pages.exts {
		w.I64(e.off)
		e.p.Save(w)
	}

	w.String(b.lease.id)
	w.Time(b.lease.expires)
	w.Bool(b.lease.infinite)
	w.U64(b.lease.counter)

	w.Int(len(b.snapshots))
	for _, sn := range b.snapshots {
		w.Time(sn.at)
		w.U8(uint8(sn.kind))
		w.I64(sn.size)
		sn.content.Save(w)
	}
}

func loadBlob(r *snap.Reader) (*blob, error) {
	b := &blob{
		name:         r.String(),
		kind:         BlobType(r.U8()),
		etag:         r.String(),
		lastModified: r.Time(),
		contentType:  r.String(),
		metadata:     r.StringMap(),
	}

	var err error
	ncb := r.Count()
	for i := 0; i < ncb; i++ {
		cb := committedBlock{id: r.String()}
		cb.off = r.I64()
		if cb.p, err = payload.Load(r); err != nil {
			return nil, err
		}
		b.committed = append(b.committed, cb)
	}
	b.blockSize = r.I64()
	nu := r.Count()
	b.uncommitted = make(map[string]payload.Payload, nu)
	for i := 0; i < nu; i++ {
		id := r.String()
		p, err := payload.Load(r)
		if err != nil {
			return nil, err
		}
		b.stageOrder = append(b.stageOrder, id)
		b.uncommitted[id] = p
	}

	b.pageCap = r.I64()
	ne := r.Count()
	for i := 0; i < ne; i++ {
		e := extent{off: r.I64()}
		if e.p, err = payload.Load(r); err != nil {
			return nil, err
		}
		b.pages.exts = append(b.pages.exts, e)
	}

	b.lease.id = r.String()
	b.lease.expires = r.Time()
	b.lease.infinite = r.Bool()
	b.lease.counter = r.U64()

	ns := r.Count()
	for i := 0; i < ns; i++ {
		sn := &snapshot{
			at:   r.Time(),
			kind: BlobType(r.U8()),
			size: r.I64(),
		}
		if sn.content, err = payload.Load(r); err != nil {
			return nil, err
		}
		b.snapshots = append(b.snapshots, sn)
	}
	return b, r.Err()
}
