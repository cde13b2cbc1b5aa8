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

// handleBlob routes /blob/{container}[/{blob...}]; GET /blob/?comp=list
// enumerates containers.
func (s *Server) handleBlob(w http.ResponseWriter, r *http.Request) {
	if !s.throttle.allow("", "") {
		writeBusy(w)
		return
	}
	container, blob := pathParts(r, "/blob/")
	switch {
	case container == "":
		if r.Method != http.MethodGet {
			writeMethodNotAllowed(w, r)
			return
		}
		done := engineStart(r)
		containers := s.Blob.ListContainers(r.URL.Query().Get("prefix"))
		done()
		writeXML(w, http.StatusOK, containerListXML{Containers: containers})
	case blob == "":
		s.handleContainer(w, r, container)
	default:
		s.handleBlobObject(w, r, container, blob)
	}
}

func (s *Server) handleContainer(w http.ResponseWriter, r *http.Request, container string) {
	q := r.URL.Query()
	switch {
	case r.Method == http.MethodPut:
		if err := engineDo(r, func() error { return s.Blob.CreateContainer(container) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case r.Method == http.MethodDelete:
		if err := engineDo(r, func() error { return s.Blob.DeleteContainer(container) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	case r.Method == http.MethodGet && q.Get("comp") == "list":
		done := engineStart(r)
		blobs, err := s.Blob.ListBlobs(container, q.Get("prefix"))
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		writeXML(w, http.StatusOK, blobListXML{Blobs: blobs})
	default:
		writeMethodNotAllowed(w, r)
	}
}

type blobListXML struct {
	XMLName xml.Name `xml:"EnumerationResults"`
	Blobs   []string `xml:"Blobs>Blob>Name"`
}

type containerListXML struct {
	XMLName    xml.Name `xml:"EnumerationResults"`
	Containers []string `xml:"Containers>Container>Name"`
}

func (s *Server) handleBlobObject(w http.ResponseWriter, r *http.Request, container, blob string) {
	q := r.URL.Query()
	comp := q.Get("comp")
	switch {
	case r.Method == http.MethodPut && comp == "block":
		s.putBlock(w, r, container, blob, q.Get("blockid"))
	case r.Method == http.MethodPut && comp == "blocklist":
		s.putBlockList(w, r, container, blob)
	case r.Method == http.MethodPut && comp == "page":
		s.putPage(w, r, container, blob)
	case r.Method == http.MethodPut && comp == "lease":
		s.leaseOp(w, r, container, blob)
	case r.Method == http.MethodPut && comp == "snapshot":
		done := engineStart(r)
		ts, err := s.Blob.Snapshot(container, blob)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("x-ms-snapshot", ts.UTC().Format(time.RFC3339Nano))
		w.WriteHeader(http.StatusCreated)
	case r.Method == http.MethodPut:
		s.putBlob(w, r, container, blob)
	case r.Method == http.MethodGet && comp == "blocklist":
		s.getBlockList(w, r, container, blob)
	case r.Method == http.MethodGet && comp == "pagelist":
		s.getPageList(w, r, container, blob)
	case r.Method == http.MethodGet:
		s.getBlob(w, r, container, blob)
	case r.Method == http.MethodHead:
		s.headBlob(w, r, container, blob)
	case r.Method == http.MethodDelete:
		if err := engineDo(r, func() error { return s.Blob.DeleteBlob(container, blob, r.Header.Get(hLeaseID)) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	default:
		writeMethodNotAllowed(w, r)
	}
}

// readBlobBody reads an upload into the buffer the engine will keep.
func readBlobBody(r *http.Request) (payload.Payload, error) {
	body, err := readBody(r, maxBodyBytes, nil)
	return payload.Bytes(body), err
}

func (s *Server) putBlob(w http.ResponseWriter, r *http.Request, container, blob string) {
	switch r.Header.Get(hBlobType) {
	case "PageBlob":
		size, err := strconv.ParseInt(r.Header.Get("x-ms-blob-content-length"), 10, 64)
		if err != nil {
			writeError(w, storecommon.Errf(storecommon.CodeMissingRequiredHeader, 400,
				"x-ms-blob-content-length required for page blobs"))
			return
		}
		done := engineStart(r)
		props, err := s.Blob.CreatePageBlob(container, blob, size)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		setHeader(w.Header(), hETag, props.ETag)
		w.WriteHeader(http.StatusCreated)
	case "BlockBlob", "":
		data, err := readBlobBody(r)
		if err != nil {
			writeError(w, err)
			return
		}
		done := engineStart(r)
		props, err := s.Blob.UploadBlockBlob(container, blob, data, r.Header.Get(hLeaseID))
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		setHeader(w.Header(), hETag, props.ETag)
		w.WriteHeader(http.StatusCreated)
	default:
		writeError(w, storecommon.Errf(storecommon.CodeInvalidInput, 400,
			"unknown x-ms-blob-type %q", r.Header.Get(hBlobType)))
	}
}

func (s *Server) putBlock(w http.ResponseWriter, r *http.Request, container, blob, blockID string) {
	data, err := readBlobBody(r)
	if err != nil {
		writeError(w, err)
		return
	}
	if err := engineDo(r, func() error { return s.Blob.PutBlock(container, blob, blockID, data) }); err != nil {
		writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusCreated)
}

// blockListXML is the PutBlockList request / GetBlockList response body.
type blockListXML struct {
	XMLName     xml.Name `xml:"BlockList"`
	Committed   []string `xml:"Committed"`
	Uncommitted []string `xml:"Uncommitted"`
	Latest      []string `xml:"Latest"`
}

func (s *Server) putBlockList(w http.ResponseWriter, r *http.Request, container, blob string) {
	buf := getScratch()
	defer buf.release()
	raw, err := readBody(r, maxBodyBytes, buf)
	if err != nil {
		writeError(w, err)
		return
	}
	// Element order matters in a block list; decode token-by-token.
	refs, err := decodeBlockListOrdered(raw)
	if err != nil {
		writeError(w, err)
		return
	}
	done := engineStart(r)
	props, err := s.Blob.PutBlockList(container, blob, refs, r.Header.Get(hLeaseID))
	done()
	if err != nil {
		writeError(w, err)
		return
	}
	setHeader(w.Header(), hETag, props.ETag)
	w.WriteHeader(http.StatusCreated)
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

func (s *Server) getBlockList(w http.ResponseWriter, r *http.Request, container, blob string) {
	done := engineStart(r)
	committed, uncommitted, err := s.Blob.GetBlockList(container, blob)
	done()
	if err != nil {
		writeError(w, err)
		return
	}
	var out blockListXML
	for _, b := range committed {
		out.Committed = append(out.Committed, b.ID)
	}
	for _, b := range uncommitted {
		out.Uncommitted = append(out.Uncommitted, b.ID)
	}
	writeXML(w, http.StatusOK, out)
}

func (s *Server) putPage(w http.ResponseWriter, r *http.Request, container, blob string) {
	off, n, err := parseRange(r.Header.Get("x-ms-range"))
	if err != nil {
		writeError(w, err)
		return
	}
	leaseID := r.Header.Get(hLeaseID)
	switch r.Header.Get("x-ms-page-write") {
	case "clear":
		if err := engineDo(r, func() error { return s.Blob.ClearPages(container, blob, off, n, leaseID) }); err != nil {
			writeError(w, err)
			return
		}
	default: // "update"
		data, err := readBlobBody(r)
		if err != nil {
			writeError(w, err)
			return
		}
		if data.Len() != n {
			writeError(w, storecommon.Errf(storecommon.CodeInvalidPageRange, 400,
				"body length %d does not match range length %d", data.Len(), n))
			return
		}
		if err := engineDo(r, func() error { return s.Blob.PutPages(container, blob, off, data, leaseID) }); err != nil {
			writeError(w, err)
			return
		}
	}
	w.WriteHeader(http.StatusCreated)
}

type pageListXML struct {
	XMLName xml.Name       `xml:"PageList"`
	Ranges  []pageRangeXML `xml:"PageRange"`
}

type pageRangeXML struct {
	Start int64 `xml:"Start"`
	End   int64 `xml:"End"`
}

func (s *Server) getPageList(w http.ResponseWriter, r *http.Request, container, blob string) {
	done := engineStart(r)
	ranges, err := s.Blob.GetPageRanges(container, blob)
	done()
	if err != nil {
		writeError(w, err)
		return
	}
	var out pageListXML
	for _, rg := range ranges {
		out.Ranges = append(out.Ranges, pageRangeXML{Start: rg.Off, End: rg.End() - 1})
	}
	writeXML(w, http.StatusOK, out)
}

func (s *Server) getBlob(w http.ResponseWriter, r *http.Request, container, blob string) {
	if snap := r.URL.Query().Get("snapshot"); snap != "" {
		ts, err := time.Parse(time.RFC3339Nano, snap)
		if err != nil {
			writeError(w, storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad snapshot timestamp %q", snap))
			return
		}
		done := engineStart(r)
		data, err := s.Blob.DownloadSnapshot(container, blob, ts)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		writeBody(w, http.StatusOK, octetType, data.AsBytes())
		return
	}
	if rangeHdr := firstNonEmpty(r.Header.Get(hMsRange), r.Header.Get(hRange)); rangeHdr != "" {
		off, n, err := parseRange(rangeHdr)
		if err != nil {
			writeError(w, err)
			return
		}
		done := engineStart(r)
		data, err := s.Blob.DownloadRange(container, blob, off, n)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		writeBody(w, http.StatusPartialContent, octetType, data.AsBytes())
		return
	}
	done := engineStart(r)
	data, props, err := s.Blob.Download(container, blob)
	done()
	if err != nil {
		writeError(w, err)
		return
	}
	setBlobHeaders(w, props)
	w.WriteHeader(http.StatusOK)
	w.Write(data.AsBytes()) // the engine's own bytes, not a copy
}

func (s *Server) headBlob(w http.ResponseWriter, r *http.Request, container, blob string) {
	done := engineStart(r)
	props, err := s.Blob.GetProps(container, blob)
	done()
	if err != nil {
		writeError(w, err)
		return
	}
	setBlobHeaders(w, props)
	w.WriteHeader(http.StatusOK)
}

func setBlobHeaders(w http.ResponseWriter, props blobstore.Props) {
	setHeader(w.Header(), hETag, props.ETag)
	w.Header().Set("x-ms-blob-type", props.Type.String())
	w.Header().Set("Content-Length", strconv.FormatInt(props.Size, 10))
	w.Header().Set("x-ms-lease-status", strings.ToLower(props.LeaseStatus.String()))
	w.Header().Set("Last-Modified", props.LastModified.UTC().Format(http.TimeFormat))
}

func (s *Server) leaseOp(w http.ResponseWriter, r *http.Request, container, blob string) {
	action := r.Header.Get("x-ms-lease-action")
	leaseID := r.Header.Get(hLeaseID)
	switch action {
	case "acquire":
		d := blobstore.InfiniteLease
		if v := r.Header.Get("x-ms-lease-duration"); v != "" && v != "-1" {
			secs, err := strconv.Atoi(v)
			if err != nil {
				writeError(w, storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad lease duration %q", v))
				return
			}
			d = time.Duration(secs) * time.Second
		}
		done := engineStart(r)
		id, err := s.Blob.AcquireLease(container, blob, d)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		w.Header().Set("x-ms-lease-id", id)
		w.WriteHeader(http.StatusCreated)
	case "renew":
		if err := engineDo(r, func() error { return s.Blob.RenewLease(container, blob, leaseID, blobstore.InfiniteLease) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusOK)
	case "release":
		if err := engineDo(r, func() error { return s.Blob.ReleaseLease(container, blob, leaseID) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusOK)
	case "break":
		if err := engineDo(r, func() error { return s.Blob.BreakLease(container, blob) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusAccepted)
	default:
		writeError(w, storecommon.Errf(storecommon.CodeInvalidInput, 400, "unknown lease action %q", action))
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
