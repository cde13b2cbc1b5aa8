package sdk

import (
	"encoding/xml"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// BlobClient talks to the blob service.
type BlobClient struct {
	c *Client
}

// BlobProps are the properties returned by Head/Get.
type BlobProps struct {
	ETag         string
	BlobType     string
	Size         int64
	LeaseStatus  string
	LastModified time.Time
}

// CreateContainer creates a container.
func (b *BlobClient) CreateContainer(name string) error {
	_, err := b.c.do(request{op: "CreateContainer", method: http.MethodPut, path: "/blob/" + esc(name)})
	return err
}

// DeleteContainer deletes a container.
func (b *BlobClient) DeleteContainer(name string) error {
	_, err := b.c.do(request{op: "DeleteContainer", method: http.MethodDelete, path: "/blob/" + esc(name)})
	return err
}

// ListBlobs lists blob names in a container by prefix.
func (b *BlobClient) ListBlobs(container, prefix string) ([]string, error) {
	q := "comp=list"
	if prefix != "" {
		q += "&prefix=" + url.QueryEscape(prefix)
	}
	resp, err := b.c.do(request{op: "ListBlobs", method: http.MethodGet, path: "/blob/" + esc(container), query: q})
	if err != nil {
		return nil, err
	}
	var out struct {
		Blobs []string `xml:"Blobs>Blob>Name"`
	}
	if err := xml.Unmarshal(resp.body, &out); err != nil {
		return nil, fmt.Errorf("sdk: bad blob list: %w", err)
	}
	return out.Blobs, nil
}

// ListContainers lists container names by prefix.
func (b *BlobClient) ListContainers(prefix string) ([]string, error) {
	q := "comp=list"
	if prefix != "" {
		q += "&prefix=" + url.QueryEscape(prefix)
	}
	resp, err := b.c.do(request{op: "ListContainers", method: http.MethodGet, path: "/blob/", query: q})
	if err != nil {
		return nil, err
	}
	var out struct {
		Containers []string `xml:"Containers>Container>Name"`
	}
	if err := xml.Unmarshal(resp.body, &out); err != nil {
		return nil, fmt.Errorf("sdk: bad container list: %w", err)
	}
	return out.Containers, nil
}

func blobPath(container, blob string) string {
	return "/blob/" + esc(container) + "/" + esc(blob)
}

// Upload uploads a block blob in one shot (<= 64 MB).
func (b *BlobClient) Upload(container, blob string, data []byte) error {
	_, err := b.c.do(request{op: "Upload",
		method:  http.MethodPut,
		path:    blobPath(container, blob),
		headers: []header{{hBlobType, "BlockBlob"}},
		body:    data,
	})
	return err
}

// PutBlock stages an uncommitted block.
func (b *BlobClient) PutBlock(container, blob, blockID string, data []byte) error {
	_, err := b.c.do(request{op: "PutBlock",
		method: http.MethodPut,
		path:   blobPath(container, blob),
		query:  "blockid=" + url.QueryEscape(blockID) + "&comp=block",
		body:   data,
	})
	return err
}

// PutBlockList commits the given block ids (Latest semantics).
func (b *BlobClient) PutBlockList(container, blob string, blockIDs []string) error {
	type blockList struct {
		XMLName xml.Name `xml:"BlockList"`
		Latest  []string `xml:"Latest"`
	}
	body, err := xml.Marshal(blockList{Latest: blockIDs})
	if err != nil {
		return err
	}
	_, err = b.c.do(request{op: "PutBlockList",
		method: http.MethodPut,
		path:   blobPath(container, blob),
		query:  "comp=blocklist",
		body:   body,
	})
	return err
}

// GetBlockList returns the committed and uncommitted block ids.
func (b *BlobClient) GetBlockList(container, blob string) (committed, uncommitted []string, err error) {
	resp, err := b.c.do(request{op: "GetBlockList",
		method: http.MethodGet,
		path:   blobPath(container, blob),
		query:  "comp=blocklist",
	})
	if err != nil {
		return nil, nil, err
	}
	var out struct {
		Committed   []string `xml:"Committed"`
		Uncommitted []string `xml:"Uncommitted"`
	}
	if err := xml.Unmarshal(resp.body, &out); err != nil {
		return nil, nil, fmt.Errorf("sdk: bad block list: %w", err)
	}
	return out.Committed, out.Uncommitted, nil
}

// CreatePageBlob creates a page blob of the given size.
func (b *BlobClient) CreatePageBlob(container, blob string, size int64) error {
	_, err := b.c.do(request{op: "CreatePageBlob",
		method: http.MethodPut,
		path:   blobPath(container, blob),
		headers: []header{
			{hBlobType, "PageBlob"},
			{hBlobContentLength, strconv.FormatInt(size, 10)},
		},
	})
	return err
}

// PutPages writes 512-aligned pages at off.
func (b *BlobClient) PutPages(container, blob string, off int64, data []byte) error {
	_, err := b.c.do(request{op: "PutPages",
		method: http.MethodPut,
		path:   blobPath(container, blob),
		query:  "comp=page",
		headers: []header{
			{hMsRange, rangeHeader(off, int64(len(data)))},
			{hPageWrite, "update"},
		},
		body: data,
	})
	return err
}

// ClearPages zeroes the 512-aligned range [off, off+n).
func (b *BlobClient) ClearPages(container, blob string, off, n int64) error {
	_, err := b.c.do(request{op: "ClearPages",
		method: http.MethodPut,
		path:   blobPath(container, blob),
		query:  "comp=page",
		headers: []header{
			{hMsRange, rangeHeader(off, n)},
			{hPageWrite, "clear"},
		},
	})
	return err
}

// PageRange is one valid page range.
type PageRange struct{ Start, End int64 }

// GetPageRanges lists valid page ranges.
func (b *BlobClient) GetPageRanges(container, blob string) ([]PageRange, error) {
	resp, err := b.c.do(request{op: "GetPageRanges",
		method: http.MethodGet,
		path:   blobPath(container, blob),
		query:  "comp=pagelist",
	})
	if err != nil {
		return nil, err
	}
	var out struct {
		Ranges []PageRange `xml:"PageRange"`
	}
	if err := xml.Unmarshal(resp.body, &out); err != nil {
		return nil, fmt.Errorf("sdk: bad page list: %w", err)
	}
	return out.Ranges, nil
}

// Download fetches the blob's full content.
func (b *BlobClient) Download(container, blob string) ([]byte, error) {
	resp, err := b.c.do(request{op: "Download", method: http.MethodGet, path: blobPath(container, blob)})
	if err != nil {
		return nil, err
	}
	return resp.body, nil
}

// DownloadRange fetches [off, off+n).
func (b *BlobClient) DownloadRange(container, blob string, off, n int64) ([]byte, error) {
	resp, err := b.c.do(request{op: "DownloadRange",
		method:  http.MethodGet,
		path:    blobPath(container, blob),
		headers: []header{{hMsRange, rangeHeader(off, n)}},
	})
	if err != nil {
		return nil, err
	}
	return resp.body, nil
}

// Props fetches blob properties via HEAD.
func (b *BlobClient) Props(container, blob string) (BlobProps, error) {
	resp, err := b.c.do(request{op: "Props", method: http.MethodHead, path: blobPath(container, blob)})
	if err != nil {
		return BlobProps{}, err
	}
	size, _ := strconv.ParseInt(resp.headers.Get(hContentLength), 10, 64)
	lm, _ := time.Parse(http.TimeFormat, resp.headers.Get(hLastModified))
	return BlobProps{
		ETag:         resp.headers.Get(hETag),
		BlobType:     resp.headers.Get(hBlobType),
		Size:         size,
		LeaseStatus:  resp.headers.Get(hLeaseStatus),
		LastModified: lm,
	}, nil
}

// Delete removes a blob.
func (b *BlobClient) Delete(container, blob string) error {
	_, err := b.c.do(request{op: "Delete", method: http.MethodDelete, path: blobPath(container, blob)})
	return err
}

// Snapshot captures a snapshot and returns its timestamp.
func (b *BlobClient) Snapshot(container, blob string) (time.Time, error) {
	resp, err := b.c.do(request{op: "Snapshot",
		method: http.MethodPut,
		path:   blobPath(container, blob),
		query:  "comp=snapshot",
	})
	if err != nil {
		return time.Time{}, err
	}
	return time.Parse(time.RFC3339Nano, resp.headers.Get(hSnapshot))
}

// DownloadSnapshot fetches the content of a snapshot.
func (b *BlobClient) DownloadSnapshot(container, blob string, ts time.Time) ([]byte, error) {
	resp, err := b.c.do(request{op: "DownloadSnapshot",
		method: http.MethodGet,
		path:   blobPath(container, blob),
		query:  "snapshot=" + url.QueryEscape(ts.UTC().Format(time.RFC3339Nano)),
	})
	if err != nil {
		return nil, err
	}
	return resp.body, nil
}

// AcquireLease acquires a lease (seconds in 15..60, or -1 for infinite)
// and returns the lease id.
func (b *BlobClient) AcquireLease(container, blob string, seconds int) (string, error) {
	resp, err := b.c.do(request{op: "AcquireLease",
		method: http.MethodPut,
		path:   blobPath(container, blob),
		query:  "comp=lease",
		headers: []header{
			{hLeaseAction, "acquire"},
			{hLeaseDuration, strconv.Itoa(seconds)},
		},
	})
	if err != nil {
		return "", err
	}
	return resp.headers.Get(hLeaseID), nil
}

// ReleaseLease releases a held lease.
func (b *BlobClient) ReleaseLease(container, blob, leaseID string) error {
	_, err := b.c.do(request{op: "ReleaseLease",
		method: http.MethodPut,
		path:   blobPath(container, blob),
		query:  "comp=lease",
		headers: []header{
			{hLeaseAction, "release"},
			{hLeaseID, leaseID},
		},
	})
	return err
}

func rangeHeader(off, n int64) string {
	return fmt.Sprintf("bytes=%d-%d", off, off+n-1)
}
