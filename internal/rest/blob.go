package rest

import (
	"encoding/xml"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"azurebench/internal/blobstore"
	"azurebench/internal/payload"
	"azurebench/internal/storecommon"
)

// maxBodyBytes bounds request bodies read into memory (the largest legal
// body is a 64 MB single-shot blob upload).
const maxBodyBytes = storecommon.MaxSingleShotBlob + 1<<20

// serveBlob serves /blob/[{container}[/{blob}]]: at the account, GET
// enumerates containers.
func (s *Server) serveBlob(w http.ResponseWriter, r *request) error {
	container, blob := r.name, r.sub
	onAccount, onContainer := container == "" && blob == "", container != "" && blob == ""
	comp := r.param("comp")
	switch m := r.Method; {
	case onAccount && m == http.MethodGet:
		done := engineStart(r)
		containers := s.Blob.ListContainers(r.param("prefix"))
		done()
		writeXML(w, http.StatusOK, containerListXML{Containers: containers})
	case onContainer && m == http.MethodPut:
		return reply(w, http.StatusCreated, engineDo(r, func() error { return s.Blob.CreateContainer(container) }))
	case onContainer && m == http.MethodDelete:
		return reply(w, http.StatusAccepted, engineDo(r, func() error { return s.Blob.DeleteContainer(container) }))
	case onContainer && m == http.MethodGet && comp == "list":
		done := engineStart(r)
		blobs, err := s.Blob.ListBlobs(container, r.param("prefix"))
		done()
		if err != nil {
			return err
		}
		writeXML(w, http.StatusOK, blobListXML{Blobs: blobs})
	case onAccount, onContainer:
		return methodNotAllowed(r)
	case m == http.MethodPut && comp == "block":
		return s.putBlock(w, r, container, blob, r.param("blockid"))
	case m == http.MethodPut && comp == "blocklist":
		return s.putBlockList(w, r, container, blob)
	case m == http.MethodPut && comp == "page":
		return s.putPage(w, r, container, blob)
	case m == http.MethodPut && comp == "lease":
		return s.leaseOp(w, r, container, blob)
	case m == http.MethodPut && comp == "snapshot":
		done := engineStart(r)
		ts, err := s.Blob.Snapshot(container, blob)
		done()
		if err != nil {
			return err
		}
		setHeader(w.Header(), hSnapshot, ts.UTC().Format(time.RFC3339Nano))
		w.WriteHeader(http.StatusCreated)
	case m == http.MethodPut:
		return s.putBlob(w, r, container, blob)
	case m == http.MethodGet && comp == "blocklist":
		return s.getBlockList(w, r, container, blob)
	case m == http.MethodGet && comp == "pagelist":
		return s.getPageList(w, r, container, blob)
	case m == http.MethodGet:
		return s.getBlob(w, r, container, blob)
	case m == http.MethodHead:
		done := engineStart(r)
		props, err := s.Blob.GetProps(container, blob)
		done()
		if err != nil {
			return err
		}
		setBlobHeaders(w, props)
		w.WriteHeader(http.StatusOK)
	case m == http.MethodDelete:
		return reply(w, http.StatusAccepted, engineDo(r, func() error {
			return s.Blob.DeleteBlob(container, blob, r.Header.Get(hLeaseID))
		}))
	default:
		return methodNotAllowed(r)
	}
	return nil
}

type blobListXML struct {
	XMLName xml.Name `xml:"EnumerationResults"`
	Blobs   []string `xml:"Blobs>Blob>Name"`
}

type containerListXML struct {
	XMLName    xml.Name `xml:"EnumerationResults"`
	Containers []string `xml:"Containers>Container>Name"`
}

// readBlobBody reads an upload into the buffer the engine will keep.
func readBlobBody(r *request) (payload.Payload, error) {
	body, err := readBody(r, maxBodyBytes, nil)
	return payload.Bytes(body), err
}

func (s *Server) putBlob(w http.ResponseWriter, r *request, container, blob string) error {
	var props blobstore.Props
	switch r.Header.Get(hBlobType) {
	case "PageBlob":
		size, err := strconv.ParseInt(r.Header.Get("x-ms-blob-content-length"), 10, 64)
		if err != nil {
			return storecommon.Errf(storecommon.CodeMissingRequiredHeader, 400,
				"x-ms-blob-content-length required for page blobs")
		}
		done := engineStart(r)
		props, err = s.Blob.CreatePageBlob(container, blob, size)
		done()
		if err != nil {
			return err
		}
	case "BlockBlob", "":
		data, err := readBlobBody(r)
		if err != nil {
			return err
		}
		done := engineStart(r)
		props, err = s.Blob.UploadBlockBlob(container, blob, data, r.Header.Get(hLeaseID))
		done()
		if err != nil {
			return err
		}
	default:
		return storecommon.Errf(storecommon.CodeInvalidInput, 400,
			"unknown x-ms-blob-type %q", r.Header.Get(hBlobType))
	}
	setHeader(w.Header(), hETag, props.ETag)
	w.WriteHeader(http.StatusCreated)
	return nil
}

func (s *Server) putBlock(w http.ResponseWriter, r *request, container, blob, blockID string) error {
	data, err := readBlobBody(r)
	if err != nil {
		return err
	}
	return reply(w, http.StatusCreated, engineDo(r, func() error { return s.Blob.PutBlock(container, blob, blockID, data) }))
}

// blockListXML is the PutBlockList request / GetBlockList response body.
type blockListXML struct {
	XMLName     xml.Name `xml:"BlockList"`
	Committed   []string `xml:"Committed"`
	Uncommitted []string `xml:"Uncommitted"`
	Latest      []string `xml:"Latest"`
}

func (s *Server) putBlockList(w http.ResponseWriter, r *request, container, blob string) error {
	buf := getScratch()
	defer buf.release()
	raw, err := readBody(r, maxBodyBytes, buf)
	if err != nil {
		return err
	}
	// Element order matters in a block list; decode token-by-token.
	refs, err := decodeBlockListOrdered(raw)
	if err != nil {
		return err
	}
	done := engineStart(r)
	props, err := s.Blob.PutBlockList(container, blob, refs, r.Header.Get(hLeaseID))
	done()
	if err != nil {
		return err
	}
	setHeader(w.Header(), hETag, props.ETag)
	w.WriteHeader(http.StatusCreated)
	return nil
}

func decodeBlockListOrdered(raw []byte) ([]blobstore.BlockRef, error) {
	dec := xml.NewDecoder(strings.NewReader(string(raw)))
	var refs []blobstore.BlockRef
	var current string
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad block list XML: %v", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			switch t.Name.Local {
			case "Committed", "Uncommitted", "Latest":
				current = t.Name.Local
			case "BlockList":
				current = ""
			}
		case xml.CharData:
			id := strings.TrimSpace(string(t))
			if id == "" || current == "" {
				continue
			}
			src := blobstore.Latest
			switch current {
			case "Committed":
				src = blobstore.Committed
			case "Uncommitted":
				src = blobstore.Uncommitted
			}
			refs = append(refs, blobstore.BlockRef{ID: id, Source: src})
		case xml.EndElement:
			if t.Name.Local != "BlockList" {
				current = ""
			}
		}
	}
	return refs, nil
}

func (s *Server) getBlockList(w http.ResponseWriter, r *request, container, blob string) error {
	done := engineStart(r)
	committed, uncommitted, err := s.Blob.GetBlockList(container, blob)
	done()
	if err != nil {
		return err
	}
	var out blockListXML
	for _, b := range committed {
		out.Committed = append(out.Committed, b.ID)
	}
	for _, b := range uncommitted {
		out.Uncommitted = append(out.Uncommitted, b.ID)
	}
	writeXML(w, http.StatusOK, out)
	return nil
}

func (s *Server) putPage(w http.ResponseWriter, r *request, container, blob string) error {
	off, n, err := parseRange(r.Header.Get(hMsRange))
	if err != nil {
		return err
	}
	leaseID := r.Header.Get(hLeaseID)
	if r.Header.Get("x-ms-page-write") == "clear" {
		return reply(w, http.StatusCreated, engineDo(r, func() error { return s.Blob.ClearPages(container, blob, off, n, leaseID) }))
	}
	// "update"
	data, err := readBlobBody(r)
	if err != nil {
		return err
	}
	if data.Len() != n {
		return storecommon.Errf(storecommon.CodeInvalidPageRange, 400,
			"body length %d does not match range length %d", data.Len(), n)
	}
	return reply(w, http.StatusCreated, engineDo(r, func() error { return s.Blob.PutPages(container, blob, off, data, leaseID) }))
}

type pageListXML struct {
	XMLName xml.Name       `xml:"PageList"`
	Ranges  []pageRangeXML `xml:"PageRange"`
}

type pageRangeXML struct {
	Start int64 `xml:"Start"`
	End   int64 `xml:"End"`
}

func (s *Server) getPageList(w http.ResponseWriter, r *request, container, blob string) error {
	done := engineStart(r)
	ranges, err := s.Blob.GetPageRanges(container, blob)
	done()
	if err != nil {
		return err
	}
	var out pageListXML
	for _, rg := range ranges {
		out.Ranges = append(out.Ranges, pageRangeXML{Start: rg.Off, End: rg.End() - 1})
	}
	writeXML(w, http.StatusOK, out)
	return nil
}

func (s *Server) getBlob(w http.ResponseWriter, r *request, container, blob string) error {
	if snap := r.param("snapshot"); snap != "" {
		ts, err := time.Parse(time.RFC3339Nano, snap)
		if err != nil {
			return storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad snapshot timestamp %q", snap)
		}
		done := engineStart(r)
		data, err := s.Blob.DownloadSnapshot(container, blob, ts)
		done()
		if err != nil {
			return err
		}
		writeBody(w, http.StatusOK, octetType, data.AsBytes())
		return nil
	}
	if rangeHdr := firstNonEmpty(r.Header.Get(hMsRange), r.Header.Get(hRange)); rangeHdr != "" {
		off, n, err := parseRange(rangeHdr)
		if err != nil {
			return err
		}
		done := engineStart(r)
		data, err := s.Blob.DownloadRange(container, blob, off, n)
		done()
		if err != nil {
			return err
		}
		writeBody(w, http.StatusPartialContent, octetType, data.AsBytes())
		return nil
	}
	done := engineStart(r)
	data, props, err := s.Blob.Download(container, blob)
	done()
	if err != nil {
		return err
	}
	setBlobHeaders(w, props)
	w.WriteHeader(http.StatusOK)
	w.Write(data.AsBytes()) // the engine's own bytes, not a copy
	return nil
}

func setBlobHeaders(w http.ResponseWriter, props blobstore.Props) {
	h := w.Header()
	setHeader(h, hETag, props.ETag)
	setHeader(h, hBlobType, props.Type.String())
	setHeader(h, hContentLength, strconv.FormatInt(props.Size, 10))
	setHeader(h, hLeaseStatus, strings.ToLower(props.LeaseStatus.String()))
	setHeader(h, hLastModified, props.LastModified.UTC().Format(http.TimeFormat))
}

func (s *Server) leaseOp(w http.ResponseWriter, r *request, container, blob string) error {
	action := r.Header.Get("x-ms-lease-action")
	leaseID := r.Header.Get(hLeaseID)
	switch action {
	case "acquire":
		d := blobstore.InfiniteLease
		if v := r.Header.Get("x-ms-lease-duration"); v != "" && v != "-1" {
			secs, err := strconv.Atoi(v)
			if err != nil {
				return storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad lease duration %q", v)
			}
			d = time.Duration(secs) * time.Second
		}
		done := engineStart(r)
		id, err := s.Blob.AcquireLease(container, blob, d)
		done()
		if err != nil {
			return err
		}
		setHeader(w.Header(), hLeaseID, id)
		w.WriteHeader(http.StatusCreated)
		return nil
	case "renew":
		return reply(w, http.StatusOK, engineDo(r, func() error { return s.Blob.RenewLease(container, blob, leaseID, blobstore.InfiniteLease) }))
	case "release":
		return reply(w, http.StatusOK, engineDo(r, func() error { return s.Blob.ReleaseLease(container, blob, leaseID) }))
	case "break":
		return reply(w, http.StatusAccepted, engineDo(r, func() error { return s.Blob.BreakLease(container, blob) }))
	default:
		return storecommon.Errf(storecommon.CodeInvalidInput, 400, "unknown lease action %q", action)
	}
}

// parseRange parses "bytes=start-end" into (off, length).
func parseRange(h string) (off, n int64, err error) {
	h = strings.TrimPrefix(h, "bytes=")
	lo, hi, ok := strings.Cut(h, "-")
	if !ok {
		return 0, 0, storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad range %q", h)
	}
	off, err1 := strconv.ParseInt(lo, 10, 64)
	end, err2 := strconv.ParseInt(hi, 10, 64)
	if err1 != nil || err2 != nil || end < off {
		return 0, 0, storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad range %q", h)
	}
	return off, end - off + 1, nil
}

func firstNonEmpty(a, b string) string {
	if a != "" {
		return a
	}
	return b
}

func writeXML(w http.ResponseWriter, status int, v any) {
	body, _ := xml.MarshalIndent(v, "", "  ")
	writeBody(w, status, xmlType, append([]byte(xml.Header), body...))
}
