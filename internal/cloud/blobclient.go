package cloud

import (
	"time"

	"azurebench/internal/blobstore"
	"azurebench/internal/payload"
	"azurebench/internal/sim"
)

// CreateContainer creates a blob container.
func (cl *Client) CreateContainer(p *sim.Proc, name string) error {
	// Container metadata lives on its own partition; model it as a fresh
	// single blob-partition write.
	rs := cl.cloud.blobReplicas(name, "")
	req := cl.newRequest("CreateContainer", "blob", reqHeader, rs.primary())
	defer cl.cloud.release(req)
	req.mut = true
	req.geoKey = name
	req.apply = func() (time.Duration, int64, error) {
		return cl.cloud.prm.ContainerOpOcc, 0, cl.cloud.Blob.CreateContainer(name)
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error { return dst.Blob.CreateContainer(name) }
	}
	return cl.do(p, req)
}

// CreateContainerIfNotExists creates the container when absent.
func (cl *Client) CreateContainerIfNotExists(p *sim.Proc, name string) (bool, error) {
	rs := cl.cloud.blobReplicas(name, "")
	created := false
	req := cl.newRequest("CreateContainerIfNotExists", "blob", reqHeader, rs.primary())
	defer cl.cloud.release(req)
	req.mut = true
	req.geoKey = name
	req.apply = func() (time.Duration, int64, error) {
		var err error
		created, err = cl.cloud.Blob.CreateContainerIfNotExists(name)
		return cl.cloud.prm.ContainerOpOcc, 0, err
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error {
			_, err := dst.Blob.CreateContainerIfNotExists(name)
			return err
		}
	}
	err := cl.do(p, req)
	return created, err
}

// PutBlock stages an uncommitted block (Algorithm 1's PutBlock).
func (cl *Client) PutBlock(p *sim.Proc, container, blob, blockID string, data payload.Payload) error {
	rs := cl.cloud.blobReplicas(container, blob)
	req := cl.newRequest("PutBlock", "blob", data.Len()+reqHeader, rs.primary())
	defer cl.cloud.release(req)
	req.mut = true
	req.repl = cl.cloud.prm.ReplCost()
	req.geoKey = container
	req.apply = func() (time.Duration, int64, error) {
		return cl.cloud.prm.BlockPutOcc(data.Len()), 0,
			cl.cloud.Blob.PutBlock(container, blob, blockID, data)
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error { return dst.Blob.PutBlock(container, blob, blockID, data) }
	}
	return cl.do(p, req)
}

// PutBlockList commits a block list (Algorithm 1's PutBlockList).
func (cl *Client) PutBlockList(p *sim.Proc, container, blob string, refs []blobstore.BlockRef) error {
	rs := cl.cloud.blobReplicas(container, blob)
	req := cl.newRequest("PutBlockList", "blob", int64(len(refs))*72+reqHeader, rs.primary())
	defer cl.cloud.release(req)
	req.mut = true
	req.repl = cl.cloud.prm.ReplCost()
	req.geoKey = container
	req.apply = func() (time.Duration, int64, error) {
		_, err := cl.cloud.Blob.PutBlockList(container, blob, refs, "")
		return cl.cloud.prm.CommitOcc(len(refs)), 0, err
	}
	if cl.cloud.geo != nil {
		req.mirror = mirrorBlockList(container, blob, refs)
	}
	return cl.do(p, req)
}

// UploadBlockBlob uploads a block blob in a single shot (<= 64 MB).
func (cl *Client) UploadBlockBlob(p *sim.Proc, container, blob string, data payload.Payload) error {
	rs := cl.cloud.blobReplicas(container, blob)
	req := cl.newRequest("UploadBlockBlob", "blob", data.Len()+reqHeader, rs.primary())
	defer cl.cloud.release(req)
	req.mut = true
	req.repl = cl.cloud.prm.ReplCost()
	req.geoKey = container
	req.apply = func() (time.Duration, int64, error) {
		_, err := cl.cloud.Blob.UploadBlockBlob(container, blob, data, "")
		return cl.cloud.prm.BlockPutOcc(data.Len()), 0, err
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error {
			_, err := dst.Blob.UploadBlockBlob(container, blob, data, "")
			return err
		}
	}
	return cl.do(p, req)
}

// GetBlock downloads the i-th committed block sequentially (the paper's
// block-wise download of Figure 5).
func (cl *Client) GetBlock(p *sim.Proc, container, blob string, i int) (payload.Payload, error) {
	rs := cl.cloud.blobReplicas(container, blob)
	var out payload.Payload
	req := cl.newRequest("GetBlock", "blob", reqHeader, cl.cloud.readReplica(rs))
	defer cl.cloud.release(req)
	req.apply = func() (time.Duration, int64, error) {
		blk, err := cl.cloud.Blob.GetBlock(container, blob, i)
		if err != nil {
			return cl.cloud.prm.BlockReadOverhead, 0, err
		}
		out = blk
		return cl.cloud.prm.BlockGetOcc(blk.Len()), blk.Len(), nil
	}
	err := cl.do(p, req)
	return out, err
}

// CreatePageBlob creates/initialises a page blob of the given size.
func (cl *Client) CreatePageBlob(p *sim.Proc, container, blob string, size int64) error {
	rs := cl.cloud.blobReplicas(container, blob)
	req := cl.newRequest("CreatePageBlob", "blob", reqHeader, rs.primary())
	defer cl.cloud.release(req)
	req.mut = true
	req.geoKey = container
	req.apply = func() (time.Duration, int64, error) {
		_, err := cl.cloud.Blob.CreatePageBlob(container, blob, size)
		return cl.cloud.prm.ContainerOpOcc, 0, err
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error {
			_, err := dst.Blob.CreatePageBlob(container, blob, size)
			return err
		}
	}
	return cl.do(p, req)
}

// PutPage writes pages at offset off (Algorithm 1's PutPage).
func (cl *Client) PutPage(p *sim.Proc, container, blob string, off int64, data payload.Payload) error {
	rs := cl.cloud.blobReplicas(container, blob)
	req := cl.newRequest("PutPage", "blob", data.Len()+reqHeader, rs.primary())
	defer cl.cloud.release(req)
	req.mut = true
	req.repl = cl.cloud.prm.ReplCost()
	req.geoKey = container
	req.apply = func() (time.Duration, int64, error) {
		return cl.cloud.prm.PagePutOcc(data.Len()), 0,
			cl.cloud.Blob.PutPages(container, blob, off, data, "")
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error { return dst.Blob.PutPages(container, blob, off, data, "") }
	}
	return cl.do(p, req)
}

// GetPage reads n bytes at a (random) offset from a page blob (the
// paper's random page-wise download).
func (cl *Client) GetPage(p *sim.Proc, container, blob string, off, n int64) (payload.Payload, error) {
	rs := cl.cloud.blobReplicas(container, blob)
	var out payload.Payload
	req := cl.newRequest("GetPage", "blob", reqHeader, cl.cloud.readReplica(rs))
	defer cl.cloud.release(req)
	req.apply = func() (time.Duration, int64, error) {
		pg, err := cl.cloud.Blob.GetPage(container, blob, off, n)
		if err != nil {
			return cl.cloud.prm.PageReadOverhead, 0, err
		}
		out = pg
		return cl.cloud.prm.PageGetOcc(pg.Len()), pg.Len(), nil
	}
	err := cl.do(p, req)
	return out, err
}

// Download fetches a blob's entire content: DownloadText for block blobs,
// openRead for page blobs, in the paper's terms.
func (cl *Client) Download(p *sim.Proc, container, blob string) (payload.Payload, error) {
	rs := cl.cloud.blobReplicas(container, blob)
	var out payload.Payload
	req := cl.newRequest("Download", "blob", reqHeader, cl.cloud.readReplica(rs))
	defer cl.cloud.release(req)
	req.apply = func() (time.Duration, int64, error) {
		data, props, err := cl.cloud.Blob.Download(container, blob)
		if err != nil {
			return cl.cloud.prm.BlockDownloadSetup, 0, err
		}
		out = data
		return cl.cloud.prm.DownloadOcc(props.Type == blobstore.PageBlob, data.Len()), data.Len(), nil
	}
	err := cl.do(p, req)
	return out, err
}

// DownloadRange fetches [off, off+n) of a blob.
func (cl *Client) DownloadRange(p *sim.Proc, container, blob string, off, n int64) (payload.Payload, error) {
	rs := cl.cloud.blobReplicas(container, blob)
	var out payload.Payload
	req := cl.newRequest("DownloadRange", "blob", reqHeader, cl.cloud.readReplica(rs))
	defer cl.cloud.release(req)
	req.apply = func() (time.Duration, int64, error) {
		data, err := cl.cloud.Blob.DownloadRange(container, blob, off, n)
		if err != nil {
			return cl.cloud.prm.BlockReadOverhead, 0, err
		}
		out = data
		return cl.cloud.prm.BlockGetOcc(data.Len()), data.Len(), nil
	}
	err := cl.do(p, req)
	return out, err
}

// DeleteBlob removes a blob.
func (cl *Client) DeleteBlob(p *sim.Proc, container, blob string) error {
	rs := cl.cloud.blobReplicas(container, blob)
	req := cl.newRequest("DeleteBlob", "blob", reqHeader, rs.primary())
	defer cl.cloud.release(req)
	req.mut = true
	req.repl = cl.cloud.prm.ReplCost()
	req.geoKey = container
	req.apply = func() (time.Duration, int64, error) {
		return cl.cloud.prm.DeleteBlobOcc(), 0,
			cl.cloud.Blob.DeleteBlob(container, blob, "")
	}
	if cl.cloud.geo != nil {
		req.mirror = func(dst *Cloud) error { return dst.Blob.DeleteBlob(container, blob, "") }
	}
	return cl.do(p, req)
}

// BlobProps fetches a blob's properties.
func (cl *Client) BlobProps(p *sim.Proc, container, blob string) (blobstore.Props, error) {
	rs := cl.cloud.blobReplicas(container, blob)
	var props blobstore.Props
	req := cl.newRequest("BlobProps", "blob", reqHeader, cl.cloud.readReplica(rs))
	defer cl.cloud.release(req)
	req.apply = func() (time.Duration, int64, error) {
		var err error
		props, err = cl.cloud.Blob.GetProps(container, blob)
		return cl.cloud.prm.ContainerOpOcc, reqHeader, err
	}
	err := cl.do(p, req)
	return props, err
}

// mirrorBlockList snapshots a block-list commit for replay on the
// secondary (the caller may reuse its refs slice).
func mirrorBlockList(container, blob string, refs []blobstore.BlockRef) func(*Cloud) error {
	cp := append([]blobstore.BlockRef(nil), refs...)
	return func(dst *Cloud) error {
		_, err := dst.Blob.PutBlockList(container, blob, cp, "")
		return err
	}
}
