package blobstore

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"azurebench/internal/payload"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

func newTestStore() (*Store, *vclock.Manual) {
	clk := &vclock.Manual{}
	s := New(clk)
	if err := s.CreateContainer("bench"); err != nil {
		panic(err)
	}
	return s, clk
}

func TestCreateContainerValidatesName(t *testing.T) {
	s := New(&vclock.Manual{})
	if err := s.CreateContainer("Bad_Name"); err == nil {
		t.Fatal("invalid container name accepted")
	}
	if err := s.CreateContainer("good-name"); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateContainer("good-name"); !storecommon.IsConflict(err) {
		t.Fatalf("duplicate create = %v, want conflict", err)
	}
}

func TestCreateContainerIfNotExists(t *testing.T) {
	s := New(&vclock.Manual{})
	created, err := s.CreateContainerIfNotExists("abc")
	if err != nil || !created {
		t.Fatalf("first = %v,%v", created, err)
	}
	created, err = s.CreateContainerIfNotExists("abc")
	if err != nil || created {
		t.Fatalf("second = %v,%v, want false,nil", created, err)
	}
}

func TestDeleteContainerRemovesBlobs(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("x"), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteContainer("bench"); err != nil {
		t.Fatal(err)
	}
	if got := s.ListContainers("bench"); len(got) != 0 {
		t.Fatal("container still exists")
	}
	if err := s.DeleteContainer("bench"); !storecommon.IsNotFound(err) {
		t.Fatalf("double delete = %v", err)
	}
}

func TestListContainersAndBlobs(t *testing.T) {
	s := New(&vclock.Manual{})
	for _, n := range []string{"zzz", "aaa", "aab"} {
		if err := s.CreateContainer(n); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ListContainers("aa"); len(got) != 2 || got[0] != "aaa" || got[1] != "aab" {
		t.Fatalf("ListContainers = %v", got)
	}
	for _, n := range []string{"x/1", "x/2", "y"} {
		if _, err := s.UploadBlockBlob("aaa", n, payload.String("d"), ""); err != nil {
			t.Fatal(err)
		}
	}
	blobs, err := s.ListBlobs("aaa", "x/")
	if err != nil || len(blobs) != 2 {
		t.Fatalf("ListBlobs = %v, %v", blobs, err)
	}
}

// TestListingsAreSorted pins the listing order with enough names that an
// unsorted map walk cannot come out sorted by chance.
func TestListingsAreSorted(t *testing.T) {
	s := New(&vclock.Manual{})
	var want []string
	for i := 11; i >= 0; i-- {
		name := fmt.Sprintf("c-%02d", i)
		want = append([]string{name}, want...)
		if err := s.CreateContainer(name); err != nil {
			t.Fatal(err)
		}
		if _, err := s.UploadBlockBlob("c-11", name, payload.String("d"), ""); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ListContainers("c-"); !slices.Equal(got, want) {
		t.Fatalf("ListContainers = %v, want %v", got, want)
	}
	if got, err := s.ListBlobs("c-11", "c-"); err != nil || !slices.Equal(got, want) {
		t.Fatalf("ListBlobs = %v, %v, want %v", got, err, want)
	}
}

func TestSingleShotUploadAndDownload(t *testing.T) {
	s, _ := newTestStore()
	data := payload.Synthetic(1, 1000)
	props, err := s.UploadBlockBlob("bench", "blob1", data, "")
	if err != nil {
		t.Fatal(err)
	}
	if props.Size != 1000 || props.Type != BlockBlob {
		t.Fatalf("props = %+v", props)
	}
	got, _, err := s.Download("bench", "blob1")
	if err != nil {
		t.Fatal(err)
	}
	if !payload.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}
}

func TestSingleShotUploadTooLarge(t *testing.T) {
	s, _ := newTestStore()
	_, err := s.UploadBlockBlob("bench", "big", payload.Zero(storecommon.MaxSingleShotBlob+1), "")
	if storecommon.CodeOf(err) != storecommon.CodeRequestBodyTooLarge {
		t.Fatalf("err = %v", err)
	}
}

func TestBlockStageAndCommit(t *testing.T) {
	s, _ := newTestStore()
	// Stage three blocks, commit in a different order.
	for i, id := range []string{"b0", "b1", "b2"} {
		if err := s.PutBlock("bench", "blob", id, payload.Synthetic(uint64(i), 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Before commit the blob reads as empty.
	got, props, err := s.Download("bench", "blob")
	if err != nil || got.Len() != 0 || props.Size != 0 {
		t.Fatalf("uncommitted blob: len=%d size=%d err=%v", got.Len(), props.Size, err)
	}
	committed, uncommitted, err := s.GetBlockList("bench", "blob")
	if err != nil || len(committed) != 0 || len(uncommitted) != 3 {
		t.Fatalf("block lists: %v %v %v", committed, uncommitted, err)
	}
	props, err = s.PutBlockList("bench", "blob", []BlockRef{
		{ID: "b2", Source: Latest}, {ID: "b0", Source: Latest},
	}, "")
	if err != nil {
		t.Fatal(err)
	}
	if props.Size != 200 {
		t.Fatalf("size = %d, want 200", props.Size)
	}
	got, _, _ = s.Download("bench", "blob")
	want := payload.Concat(payload.Synthetic(2, 100), payload.Synthetic(0, 100))
	if !payload.Equal(got, want) {
		t.Fatal("committed content mismatch")
	}
	// Staged area must be cleared after commit.
	_, uncommitted, _ = s.GetBlockList("bench", "blob")
	if len(uncommitted) != 0 {
		t.Fatal("uncommitted blocks survived commit")
	}
}

func TestPutBlockListSources(t *testing.T) {
	s, _ := newTestStore()
	if err := s.PutBlock("bench", "b", "x", payload.String("old")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutBlockList("bench", "b", []BlockRef{{ID: "x", Source: Uncommitted}}, ""); err != nil {
		t.Fatal(err)
	}
	// Stage a replacement; Committed still sees the old content, Latest the new.
	if err := s.PutBlock("bench", "b", "x", payload.String("new")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutBlockList("bench", "b", []BlockRef{{ID: "x", Source: Committed}}, ""); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.Download("bench", "b")
	if string(got.Materialize()) != "old" {
		t.Fatalf("Committed source = %q, want old", got.Materialize())
	}
	if err := s.PutBlock("bench", "b", "x", payload.String("new")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.PutBlockList("bench", "b", []BlockRef{{ID: "x", Source: Latest}}, ""); err != nil {
		t.Fatal(err)
	}
	got, _, _ = s.Download("bench", "b")
	if string(got.Materialize()) != "new" {
		t.Fatalf("Latest source = %q, want new", got.Materialize())
	}
	// Unknown id fails.
	if _, err := s.PutBlockList("bench", "b", []BlockRef{{ID: "nope", Source: Latest}}, ""); storecommon.CodeOf(err) != storecommon.CodeInvalidBlockList {
		t.Fatalf("unknown block = %v", err)
	}
}

func TestPutBlockValidation(t *testing.T) {
	s, _ := newTestStore()
	if err := s.PutBlock("bench", "b", "", payload.String("x")); storecommon.CodeOf(err) != storecommon.CodeInvalidBlockID {
		t.Fatalf("empty id = %v", err)
	}
	if err := s.PutBlock("bench", "b", "id", payload.Payload{}); storecommon.CodeOf(err) != storecommon.CodeInvalidInput {
		t.Fatalf("empty body = %v", err)
	}
	if err := s.PutBlock("bench", "b", "id", payload.Zero(storecommon.MaxBlockSize+1)); storecommon.CodeOf(err) != storecommon.CodeRequestBodyTooLarge {
		t.Fatalf("oversized block = %v", err)
	}
}

func TestGetBlockSequential(t *testing.T) {
	s, _ := newTestStore()
	var refs []BlockRef
	for i := 0; i < 5; i++ {
		id := string(rune('a' + i))
		if err := s.PutBlock("bench", "b", id, payload.Synthetic(uint64(i), 10)); err != nil {
			t.Fatal(err)
		}
		refs = append(refs, BlockRef{ID: id, Source: Latest})
	}
	if _, err := s.PutBlockList("bench", "b", refs, ""); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p, err := s.GetBlock("bench", "b", i)
		if err != nil {
			t.Fatal(err)
		}
		if !payload.Equal(p, payload.Synthetic(uint64(i), 10)) {
			t.Fatalf("block %d content mismatch", i)
		}
	}
	if _, err := s.GetBlock("bench", "b", 5); storecommon.CodeOf(err) != storecommon.CodeOutOfRangeInput {
		t.Fatalf("out of range block = %v", err)
	}
}

func TestDownloadRange(t *testing.T) {
	s, _ := newTestStore()
	data := payload.Synthetic(3, 100)
	if _, err := s.UploadBlockBlob("bench", "b", data, ""); err != nil {
		t.Fatal(err)
	}
	got, err := s.DownloadRange("bench", "b", 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !payload.Equal(got, data.Slice(10, 20)) {
		t.Fatal("range mismatch")
	}
	if _, err := s.DownloadRange("bench", "b", 90, 20); err == nil {
		t.Fatal("out-of-range read accepted")
	}
}

func TestPageBlobLifecycle(t *testing.T) {
	s, _ := newTestStore()
	props, err := s.CreatePageBlob("bench", "p", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if props.Type != PageBlob || props.Size != 4096 {
		t.Fatalf("props = %+v", props)
	}
	// Fresh page blob reads as zeros.
	got, err := s.GetPage("bench", "p", 0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if !payload.Equal(got, payload.Zero(4096)) {
		t.Fatal("fresh page blob not zero")
	}
	data := payload.Synthetic(9, 1024)
	if err := s.PutPages("bench", "p", 512, data, ""); err != nil {
		t.Fatal(err)
	}
	got, err = s.GetPage("bench", "p", 512, 1024)
	if err != nil || !payload.Equal(got, data) {
		t.Fatalf("page read mismatch (err=%v)", err)
	}
	ranges, err := s.GetPageRanges("bench", "p")
	if err != nil || len(ranges) != 1 || ranges[0] != (Range{512, 1024}) {
		t.Fatalf("ranges = %v, %v", ranges, err)
	}
	if err := s.ClearPages("bench", "p", 512, 512, ""); err != nil {
		t.Fatal(err)
	}
	got, _ = s.GetPage("bench", "p", 512, 512)
	if !payload.Equal(got, payload.Zero(512)) {
		t.Fatal("cleared pages not zero")
	}
}

func TestPageBlobAlignmentAndBounds(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.CreatePageBlob("bench", "p", 511); storecommon.CodeOf(err) != storecommon.CodeInvalidPageRange {
		t.Fatalf("unaligned size = %v", err)
	}
	if _, err := s.CreatePageBlob("bench", "p", 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPages("bench", "p", 100, payload.Zero(512), ""); storecommon.CodeOf(err) != storecommon.CodeInvalidPageRange {
		t.Fatalf("unaligned offset = %v", err)
	}
	if err := s.PutPages("bench", "p", 0, payload.Zero(100), ""); storecommon.CodeOf(err) != storecommon.CodeInvalidPageRange {
		t.Fatalf("unaligned length = %v", err)
	}
	if err := s.PutPages("bench", "p", 4096, payload.Zero(512), ""); storecommon.CodeOf(err) != storecommon.CodeInvalidPageRange {
		t.Fatalf("write past end = %v", err)
	}
	if err := s.PutPages("bench", "p", 0, payload.Zero(storecommon.MaxPageWrite+512), ""); storecommon.CodeOf(err) != storecommon.CodeRequestBodyTooLarge {
		t.Fatalf("oversized write = %v", err)
	}
}

func TestBlobTypeMismatch(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("x"), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.PutPages("bench", "b", 0, payload.Zero(512), ""); err == nil {
		t.Fatal("page write to block blob accepted")
	}
	if _, err := s.CreatePageBlob("bench", "b", 512); err == nil {
		t.Fatal("page create over block blob accepted")
	}
	if _, err := s.CreatePageBlob("bench", "p", 512); err != nil {
		t.Fatal(err)
	}
	if err := s.PutBlock("bench", "p", "id", payload.String("x")); err == nil {
		t.Fatal("block staged on page blob")
	}
}

func TestDeleteBlob(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("x"), ""); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteBlob("bench", "b", ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Download("bench", "b"); !storecommon.IsNotFound(err) {
		t.Fatalf("download after delete = %v", err)
	}
}

func TestETagAdvancesOnMutation(t *testing.T) {
	s, clk := newTestStore()
	p1, _ := s.UploadBlockBlob("bench", "b", payload.String("x"), "")
	clk.Advance(time.Second)
	p2, _ := s.UploadBlockBlob("bench", "b", payload.String("y"), "")
	if p1.ETag == p2.ETag {
		t.Fatal("ETag unchanged after mutation")
	}
	if !p2.LastModified.After(p1.LastModified) {
		t.Fatal("LastModified did not advance")
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("x"), ""); err != nil {
		t.Fatal(err)
	}
	md := map[string]string{"owner": "worker-3"}
	if err := s.SetMetadata("bench", "b", md, ""); err != nil {
		t.Fatal(err)
	}
	md["owner"] = "mutated" // stored copy must not alias
	// No route reads blob metadata back; a checkpoint carries it.
	var w snap.Writer
	s.Save(&w)
	if saved := string(w.Bytes()); !strings.Contains(saved, "worker-3") || strings.Contains(saved, "mutated") {
		t.Fatalf("saved metadata does not hold the value set: %q", saved)
	}
}

func TestSnapshotIsImmutable(t *testing.T) {
	s, clk := newTestStore()
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("v1"), ""); err != nil {
		t.Fatal(err)
	}
	ts, err := s.Snapshot("bench", "b")
	if err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("v2"), ""); err != nil {
		t.Fatal(err)
	}
	snap, err := s.DownloadSnapshot("bench", "b", ts)
	if err != nil || string(snap.Materialize()) != "v1" {
		t.Fatalf("snapshot = %q, %v", snap.Materialize(), err)
	}
	if props, _ := s.GetProps("bench", "b"); props.Snapshots != 1 {
		t.Fatalf("snapshots = %d, want 1", props.Snapshots)
	}
	if _, err := s.DownloadSnapshot("bench", "b", ts.Add(time.Hour)); storecommon.CodeOf(err) != storecommon.CodeSnapshotNotFound {
		t.Fatalf("missing snapshot = %v", err)
	}
}

func TestLeaseProtocol(t *testing.T) {
	s, clk := newTestStore()
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("x"), ""); err != nil {
		t.Fatal(err)
	}
	id, err := s.AcquireLease("bench", "b", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Write without lease id fails; with it succeeds.
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("y"), ""); storecommon.CodeOf(err) != storecommon.CodeLeaseIDMissing {
		t.Fatalf("unleased write = %v", err)
	}
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("y"), "wrong"); storecommon.CodeOf(err) != storecommon.CodeLeaseIDMismatch {
		t.Fatalf("wrong lease write = %v", err)
	}
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("y"), id); err != nil {
		t.Fatal(err)
	}
	// Second acquire fails while active.
	if _, err := s.AcquireLease("bench", "b", 30*time.Second); storecommon.CodeOf(err) != storecommon.CodeLeaseAlreadyPresent {
		t.Fatalf("double acquire = %v", err)
	}
	// Lease expires.
	clk.Advance(31 * time.Second)
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("z"), ""); err != nil {
		t.Fatalf("write after expiry = %v", err)
	}
	if _, err := s.AcquireLease("bench", "b", 30*time.Second); err != nil {
		t.Fatalf("acquire after expiry = %v", err)
	}
}

func TestLeaseReleaseAndBreak(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("x"), ""); err != nil {
		t.Fatal(err)
	}
	id, _ := s.AcquireLease("bench", "b", InfiniteLease)
	if err := s.ReleaseLease("bench", "b", "bogus"); err == nil {
		t.Fatal("release with wrong id accepted")
	}
	if err := s.ReleaseLease("bench", "b", id); err != nil {
		t.Fatal(err)
	}
	id2, err := s.AcquireLease("bench", "b", InfiniteLease)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatal("lease ids must be unique")
	}
	if err := s.BreakLease("bench", "b"); err != nil {
		t.Fatal(err)
	}
	if err := s.BreakLease("bench", "b"); storecommon.CodeOf(err) != storecommon.CodeLeaseNotPresent {
		t.Fatalf("double break = %v", err)
	}
}

func TestLeaseDurationValidation(t *testing.T) {
	s, _ := newTestStore()
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("x"), ""); err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{time.Second, 14 * time.Second, 61 * time.Second} {
		if _, err := s.AcquireLease("bench", "b", d); err == nil {
			t.Errorf("lease duration %v accepted", d)
		}
	}
}

func TestLeaseRenew(t *testing.T) {
	s, clk := newTestStore()
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("x"), ""); err != nil {
		t.Fatal(err)
	}
	id, _ := s.AcquireLease("bench", "b", 15*time.Second)
	clk.Advance(10 * time.Second)
	if err := s.RenewLease("bench", "b", id, 15*time.Second); err != nil {
		t.Fatal(err)
	}
	clk.Advance(10 * time.Second) // 20s after acquire, 10s after renew
	if _, err := s.UploadBlockBlob("bench", "b", payload.String("y"), id); err != nil {
		t.Fatalf("write within renewed lease = %v", err)
	}
}
