// Package blobstore implements the Windows Azure Blob storage engine:
// containers holding block blobs (staged uncommitted blocks committed by a
// block list, as in the paper's Algorithm 1) and page blobs (sparse,
// 512-byte-aligned random access). Leases and snapshots are supported as
// well.
//
// The engine is a pure state machine: it implements the observable API
// semantics and is agnostic to time source (vclock.Clock) and to where the
// bytes live (payload.Payload). Latency, throttling and placement are
// layered on top by package cloud.
package blobstore

import (
	"sort"
	"strings"
	"sync"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// BlobType distinguishes the two Azure blob kinds.
type BlobType int

// Blob kinds.
const (
	BlockBlob BlobType = iota
	PageBlob
)

// String returns "BlockBlob" or "PageBlob".
func (t BlobType) String() string {
	if t == PageBlob {
		return "PageBlob"
	}
	return "BlockBlob"
}

// Store is an in-memory blob storage account. All methods are safe for
// concurrent use.
type Store struct {
	mu         sync.RWMutex
	clock      vclock.Clock
	etags      storecommon.ETagGen
	containers map[string]*container
}

type container struct {
	name     string
	created  time.Time
	metadata map[string]string
	blobs    map[string]*blob
}

type blob struct {
	name         string
	kind         BlobType
	etag         string
	lastModified time.Time
	contentType  string
	metadata     map[string]string

	// Block blob state.
	committed   []committedBlock
	blockSize   int64 // total committed size
	uncommitted map[string]payload.Payload
	stageOrder  []string // uncommitted block ids in arrival order

	// Page blob state.
	pageCap int64 // declared maximum size
	pages   extentMap

	lease     leaseState
	snapshots []*snapshot
}

type committedBlock struct {
	id  string
	p   payload.Payload
	off int64 // offset of this block within the committed blob
}

type snapshot struct {
	at      time.Time
	kind    BlobType
	size    int64
	content payload.Payload
}

// Props describes a blob.
type Props struct {
	Name         string
	Type         BlobType
	Size         int64
	ETag         string
	LastModified time.Time
	ContentType  string
	LeaseStatus  LeaseStatus
	Snapshots    int
}

// New creates an empty blob store reading time from clock.
func New(clock vclock.Clock) *Store {
	return &Store{clock: clock, containers: map[string]*container{}}
}

// --- Containers ---

// CreateContainer creates a container. It fails with
// ContainerAlreadyExists if present.
func (s *Store) CreateContainer(name string) error {
	if err := storecommon.ValidateContainerName(name); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.containers[name]; ok {
		return storecommon.Errf(storecommon.CodeContainerAlreadyExists, 409, "container %q already exists", name)
	}
	s.containers[name] = &container{
		name:    name,
		created: s.clock.Now(),
		blobs:   map[string]*blob{},
	}
	return nil
}

// CreateContainerIfNotExists creates name if absent; it reports whether it
// created the container.
func (s *Store) CreateContainerIfNotExists(name string) (bool, error) {
	err := s.CreateContainer(name)
	if storecommon.IsConflict(err) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return true, nil
}

// DeleteContainer removes a container and all blobs in it.
func (s *Store) DeleteContainer(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.containers[name]; !ok {
		return containerNotFound(name)
	}
	delete(s.containers, name)
	return nil
}

// ListContainers returns container names with the given prefix, sorted.
func (s *Store) ListContainers(prefix string) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for name := range s.containers {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// ListBlobs returns the names of blobs in the container with the given
// prefix, sorted.
func (s *Store) ListBlobs(containerName, prefix string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.containers[containerName]
	if !ok {
		return nil, containerNotFound(containerName)
	}
	var out []string
	for name := range c.blobs {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out, nil
}

// --- Shared blob operations ---

// GetProps returns a blob's properties.
func (s *Store) GetProps(containerName, blobName string) (Props, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := s.findBlob(containerName, blobName)
	if err != nil {
		return Props{}, err
	}
	return s.propsLocked(b), nil
}

func (s *Store) propsLocked(b *blob) Props {
	return Props{
		Name:         b.name,
		Type:         b.kind,
		Size:         b.size(),
		ETag:         b.etag,
		LastModified: b.lastModified,
		ContentType:  b.contentType,
		LeaseStatus:  b.lease.status(s.clock.Now()),
		Snapshots:    len(b.snapshots),
	}
}

func (b *blob) size() int64 {
	if b.kind == PageBlob {
		return b.pageCap
	}
	return b.blockSize
}

// content returns the full committed content of the blob.
func (b *blob) content() payload.Payload {
	if b.kind == PageBlob {
		return b.pages.Read(0, b.pageCap)
	}
	parts := make([]payload.Payload, len(b.committed))
	for i, cb := range b.committed {
		parts[i] = cb.p
	}
	return payload.Concat(parts...)
}

// Download returns the blob's full content and properties. For a block
// blob this is the committed content (the paper's
// BlockBlob.DownloadText()); for a page blob the full declared range
// (PageBlob.openRead()).
func (s *Store) Download(containerName, blobName string) (payload.Payload, Props, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := s.findBlob(containerName, blobName)
	if err != nil {
		return payload.Payload{}, Props{}, err
	}
	return b.content(), s.propsLocked(b), nil
}

// DownloadRange returns [off, off+n) of the blob's content.
func (s *Store) DownloadRange(containerName, blobName string, off, n int64) (payload.Payload, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := s.findBlob(containerName, blobName)
	if err != nil {
		return payload.Payload{}, err
	}
	if off < 0 || n < 0 || off+n > b.size() {
		return payload.Payload{}, storecommon.Errf(storecommon.CodeOutOfRangeInput, 416,
			"range [%d,%d) outside blob of size %d", off, off+n, b.size())
	}
	if b.kind == PageBlob {
		return b.pages.Read(off, n), nil
	}
	return b.content().Slice(off, n), nil
}

// DeleteBlob removes a blob (and its snapshots). If the blob holds an
// active lease, leaseID must match.
func (s *Store) DeleteBlob(containerName, blobName, leaseID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.containers[containerName]
	if !ok {
		return containerNotFound(containerName)
	}
	b, ok := c.blobs[blobName]
	if !ok {
		return blobNotFound(blobName)
	}
	if err := b.lease.checkWrite(leaseID, s.clock.Now()); err != nil {
		return err
	}
	delete(c.blobs, blobName)
	return nil
}

// SetMetadata replaces a blob's metadata map.
func (s *Store) SetMetadata(containerName, blobName string, md map[string]string, leaseID string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.findBlob(containerName, blobName)
	if err != nil {
		return err
	}
	if err := b.lease.checkWrite(leaseID, s.clock.Now()); err != nil {
		return err
	}
	b.metadata = copyMeta(md)
	s.touch(b)
	return nil
}

// Snapshot captures a read-only snapshot of the blob's current content and
// returns its timestamp.
func (s *Store) Snapshot(containerName, blobName string) (time.Time, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b, err := s.findBlob(containerName, blobName)
	if err != nil {
		return time.Time{}, err
	}
	snap := &snapshot{
		at:      s.clock.Now(),
		kind:    b.kind,
		size:    b.size(),
		content: b.content(),
	}
	b.snapshots = append(b.snapshots, snap)
	return snap.at, nil
}

// DownloadSnapshot returns the content of the snapshot taken at ts.
func (s *Store) DownloadSnapshot(containerName, blobName string, ts time.Time) (payload.Payload, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b, err := s.findBlob(containerName, blobName)
	if err != nil {
		return payload.Payload{}, err
	}
	for _, snap := range b.snapshots {
		if snap.at.Equal(ts) {
			return snap.content, nil
		}
	}
	return payload.Payload{}, storecommon.Errf(storecommon.CodeSnapshotNotFound, 404,
		"no snapshot of %q at %v", blobName, ts)
}

// --- internal helpers ---

func (s *Store) findBlob(containerName, blobName string) (*blob, error) {
	c, ok := s.containers[containerName]
	if !ok {
		return nil, containerNotFound(containerName)
	}
	b, ok := c.blobs[blobName]
	if !ok {
		return nil, blobNotFound(blobName)
	}
	return b, nil
}

// getOrCreateBlob returns the existing blob or creates an empty one of the
// given kind. An existing blob of the other kind is an error.
func (s *Store) getOrCreateBlob(containerName, blobName string, kind BlobType) (*blob, error) {
	if err := storecommon.ValidateBlobName(blobName); err != nil {
		return nil, err
	}
	c, ok := s.containers[containerName]
	if !ok {
		return nil, containerNotFound(containerName)
	}
	b, ok := c.blobs[blobName]
	if !ok {
		b = &blob{name: blobName, kind: kind}
		s.touch(b)
		c.blobs[blobName] = b
		return b, nil
	}
	if b.kind != kind {
		return nil, storecommon.Errf(storecommon.CodeInvalidInput, 409,
			"blob %q is a %v, not a %v", blobName, b.kind, kind)
	}
	return b, nil
}

func (s *Store) touch(b *blob) {
	b.lastModified = s.clock.Now()
	b.etag = s.etags.Next(b.lastModified)
}

func containerNotFound(name string) error {
	return storecommon.Errf(storecommon.CodeContainerNotFound, 404, "container %q not found", name)
}

func blobNotFound(name string) error {
	return storecommon.Errf(storecommon.CodeBlobNotFound, 404, "blob %q not found", name)
}

func copyMeta(md map[string]string) map[string]string {
	if md == nil {
		return nil
	}
	out := make(map[string]string, len(md))
	for k, v := range md {
		out[k] = v
	}
	return out
}
