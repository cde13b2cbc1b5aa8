package blobstore

import (
	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
)

// CreatePageBlob creates (or re-initialises) a page blob with the given
// maximum size, which must be 512-byte aligned and at most 1 TB. The blob
// initially reads as zero everywhere.
func (s *Store) CreatePageBlob(containerName, blobName string, size int64) (Props, error) {
	if size < 0 || size > storecommon.MaxPageBlobSize {
		return Props{}, storecommon.Errf(storecommon.CodeOutOfRangeInput, 400,
			"page blob size %d outside [0, %d]", size, int64(storecommon.MaxPageBlobSize))
	}
	if size%storecommon.PageAlignment != 0 {
		return Props{}, storecommon.Errf(storecommon.CodeInvalidPageRange, 400,
			"page blob size %d not %d-byte aligned", size, storecommon.PageAlignment)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.getOrCreateBlob(containerName, blobName, PageBlob)
	if err != nil {
		return Props{}, err
	}
	if err := b.lease.checkWrite("", s.clock.Now()); err != nil {
		return Props{}, err
	}
	b.pageCap = size
	b.pages = extentMap{}
	s.touch(b)
	return s.propsLocked(b), nil
}

// PutPages writes data at off. Both off and len(data) must be 512-byte
// aligned, the write must lie within the declared blob size, and a single
// call may carry at most 4 MB.
func (s *Store) PutPages(containerName, blobName string, off int64, data payload.Payload, leaseID string) error {
	if data.Len() > storecommon.MaxPageWrite {
		return storecommon.Errf(storecommon.CodeRequestBodyTooLarge, 413,
			"page write of %d bytes exceeds %d", data.Len(), storecommon.MaxPageWrite)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.pageBlobForWrite(containerName, blobName, off, data.Len(), leaseID)
	if err != nil {
		return err
	}
	b.pages.Write(off, data)
	s.touch(b)
	return nil
}

// ClearPages zeroes the aligned range [off, off+n).
func (s *Store) ClearPages(containerName, blobName string, off, n int64, leaseID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.pageBlobForWrite(containerName, blobName, off, n, leaseID)
	if err != nil {
		return err
	}
	b.pages.Clear(off, n)
	s.touch(b)
	return nil
}

// GetPage reads n bytes at off from a page blob (the paper's random page
// download). The range need not be aligned for reads.
func (s *Store) GetPage(containerName, blobName string, off, n int64) (payload.Payload, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := s.findBlob(containerName, blobName)
	if err != nil {
		return payload.Payload{}, err
	}
	if b.kind != PageBlob {
		return payload.Payload{}, storecommon.Errf(storecommon.CodeInvalidInput, 409, "blob %q is not a page blob", blobName)
	}
	if off < 0 || n < 0 || off+n > b.pageCap {
		return payload.Payload{}, storecommon.Errf(storecommon.CodeInvalidPageRange, 416,
			"read [%d,%d) outside page blob of size %d", off, off+n, b.pageCap)
	}
	return b.pages.Read(off, n), nil
}

// GetPageRanges returns the valid (written) page ranges, coalesced.
func (s *Store) GetPageRanges(containerName, blobName string) ([]Range, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := s.findBlob(containerName, blobName)
	if err != nil {
		return nil, err
	}
	if b.kind != PageBlob {
		return nil, storecommon.Errf(storecommon.CodeInvalidInput, 409, "blob %q is not a page blob", blobName)
	}
	return b.pages.Ranges(), nil
}

func (s *Store) pageBlobForWrite(containerName, blobName string, off, n int64, leaseID string) (*blob, error) {
	b, err := s.findBlob(containerName, blobName)
	if err != nil {
		return nil, err
	}
	if b.kind != PageBlob {
		return nil, storecommon.Errf(storecommon.CodeInvalidInput, 409, "blob %q is not a page blob", blobName)
	}
	if err := b.lease.checkWrite(leaseID, s.clock.Now()); err != nil {
		return nil, err
	}
	if off%storecommon.PageAlignment != 0 || n%storecommon.PageAlignment != 0 {
		return nil, storecommon.Errf(storecommon.CodeInvalidPageRange, 400,
			"page range [%d,+%d) not %d-byte aligned", off, n, storecommon.PageAlignment)
	}
	if off < 0 || n < 0 || off+n > b.pageCap {
		return nil, storecommon.Errf(storecommon.CodeInvalidPageRange, 416,
			"page range [%d,%d) outside blob of size %d", off, off+n, b.pageCap)
	}
	return b, nil
}
