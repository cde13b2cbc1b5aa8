package cloud

import (
	"azurebench/internal/blobstore"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
)

// CreateContainer creates a blob container.
func (cl *Client) CreateContainer(p *sim.Proc, name string) error {
	req := cl.newRequest(OpCreateContainer)
	defer cl.cloud.release(req)
	req.Name = name
	return cl.do(p, req)
}

// CreateContainerIfNotExists creates the container when absent.
func (cl *Client) CreateContainerIfNotExists(p *sim.Proc, name string) (bool, error) {
	req := cl.newRequest(OpCreateContainerIfNotExists)
	defer cl.cloud.release(req)
	req.Name = name
	err := cl.do(p, req)
	return req.OK, err
}

// PutBlock stages an uncommitted block (Algorithm 1's PutBlock).
func (cl *Client) PutBlock(p *sim.Proc, container, blob, blockID string, data payload.Payload) error {
	req := cl.newRequest(OpPutBlock)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.ID, req.Data = container, blob, blockID, data
	return cl.do(p, req)
}

// PutBlockList commits a block list (Algorithm 1's PutBlockList).
func (cl *Client) PutBlockList(p *sim.Proc, container, blob string, refs []blobstore.BlockRef) error {
	req := cl.newRequest(OpPutBlockList)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.Refs = container, blob, refs
	return cl.do(p, req)
}

// UploadBlockBlob uploads a block blob in a single shot (<= 64 MB).
func (cl *Client) UploadBlockBlob(p *sim.Proc, container, blob string, data payload.Payload) error {
	req := cl.newRequest(OpUploadBlockBlob)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.Data = container, blob, data
	return cl.do(p, req)
}

// GetBlock downloads the i-th committed block sequentially (the paper's
// block-wise download of Figure 5).
func (cl *Client) GetBlock(p *sim.Proc, container, blob string, i int) (payload.Payload, error) {
	req := cl.newRequest(OpGetBlock)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.Off = container, blob, int64(i)
	err := cl.do(p, req)
	return req.Data, err
}

// CreatePageBlob creates/initialises a page blob of the given size.
func (cl *Client) CreatePageBlob(p *sim.Proc, container, blob string, size int64) error {
	req := cl.newRequest(OpCreatePageBlob)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.N = container, blob, size
	return cl.do(p, req)
}

// PutPage writes pages at offset off (Algorithm 1's PutPage).
func (cl *Client) PutPage(p *sim.Proc, container, blob string, off int64, data payload.Payload) error {
	req := cl.newRequest(OpPutPage)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.Off, req.Data = container, blob, off, data
	return cl.do(p, req)
}

// GetPage reads n bytes at a (random) offset from a page blob (the
// paper's random page-wise download).
func (cl *Client) GetPage(p *sim.Proc, container, blob string, off, n int64) (payload.Payload, error) {
	req := cl.newRequest(OpGetPage)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.Off, req.N = container, blob, off, n
	err := cl.do(p, req)
	return req.Data, err
}

// Download fetches a blob's entire content: DownloadText for block blobs,
// openRead for page blobs, in the paper's terms.
func (cl *Client) Download(p *sim.Proc, container, blob string) (payload.Payload, error) {
	req := cl.newRequest(OpDownload)
	defer cl.cloud.release(req)
	req.Name, req.Key = container, blob
	err := cl.do(p, req)
	return req.Data, err
}

// DownloadRange fetches [off, off+n) of a blob.
func (cl *Client) DownloadRange(p *sim.Proc, container, blob string, off, n int64) (payload.Payload, error) {
	req := cl.newRequest(OpDownloadRange)
	defer cl.cloud.release(req)
	req.Name, req.Key, req.Off, req.N = container, blob, off, n
	err := cl.do(p, req)
	return req.Data, err
}

// DeleteBlob removes a blob.
func (cl *Client) DeleteBlob(p *sim.Proc, container, blob string) error {
	req := cl.newRequest(OpDeleteBlob)
	defer cl.cloud.release(req)
	req.Name, req.Key = container, blob
	return cl.do(p, req)
}

// BlobProps fetches a blob's properties.
func (cl *Client) BlobProps(p *sim.Proc, container, blob string) (blobstore.Props, error) {
	req := cl.newRequest(OpBlobProps)
	defer cl.cloud.release(req)
	req.Name, req.Key = container, blob
	err := cl.do(p, req)
	return req.Props, err
}
