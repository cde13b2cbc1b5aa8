package rest

import (
	"encoding/xml"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
	"azurebench/internal/storecommon"
	"azurebench/internal/xmlwire"
)

// handleQueue routes /queue/{name}[/messages[/{id}]].
func (s *Server) handleQueue(w http.ResponseWriter, r *http.Request) {
	name, sub := pathParts(r, "/queue/")
	if name == "" {
		// GET /queue/ enumerates queues.
		if r.Method != http.MethodGet {
			writeMethodNotAllowed(w, r)
			return
		}
		if !s.throttle.allow("", "") {
			writeBusy(w)
			return
		}
		done := engineStart(r)
		queues := s.Queue.ListQueues(r.URL.Query().Get("prefix"))
		done()
		writeXML(w, http.StatusOK, queueListXML{Queues: queues})
		return
	}
	if !s.throttle.allow(name, "") {
		writeBusy(w)
		return
	}
	if sub == "" {
		s.handleQueueRoot(w, r, name)
		return
	}
	s.handleQueueMessages(w, r, name, sub)
}

func (s *Server) handleQueueRoot(w http.ResponseWriter, r *http.Request, name string) {
	switch {
	case r.Method == http.MethodPut:
		if err := engineDo(r, func() error { return s.Queue.CreateQueue(name) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case r.Method == http.MethodDelete:
		if err := engineDo(r, func() error { return s.Queue.DeleteQueue(name) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case r.Method == http.MethodGet || r.Method == http.MethodHead:
		// Queue metadata: the approximate message count header drives the
		// paper's barrier.
		done := engineStart(r)
		n, err := s.Queue.ApproximateCount(name)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		setHeader(w.Header(), hApproximateCount, strconv.Itoa(n))
		w.WriteHeader(http.StatusOK)
	default:
		writeMethodNotAllowed(w, r)
	}
}

type queueListXML struct {
	XMLName xml.Name `xml:"EnumerationResults"`
	Queues  []string `xml:"Queues>Queue>Name"`
}

func (s *Server) handleQueueMessages(w http.ResponseWriter, r *http.Request, name, sub string) {
	id, oneMessage := strings.CutPrefix(sub, "messages/")
	switch {
	case sub == "messages" && r.Method == http.MethodPost:
		body, err := decodeMessageBody(r)
		if err != nil {
			writeError(w, err)
			return
		}
		ttl, err := queryInt(r.URL.Query(), "messagettl", 0)
		if err != nil {
			writeError(w, err)
			return
		}
		if err := engineDo(r, func() error { _, e := s.Queue.Put(name, body, time.Duration(ttl)*time.Second); return e }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusCreated)
	case sub == "messages" && r.Method == http.MethodGet:
		q := r.URL.Query()
		// numofmessages is range-checked (1 to 32) by the engine, so both
		// front doors agree.
		max, err := queryInt(q, "numofmessages", 1)
		if err != nil {
			writeError(w, err)
			return
		}
		peek := q.Get("peekonly") == "true"
		vis := 0
		if !peek {
			if vis, err = queryInt(q, "visibilitytimeout", 0); err != nil {
				writeError(w, err)
				return
			}
		}
		var msgs []queuestore.Message
		done := engineStart(r)
		if peek {
			msgs, err = s.Queue.Peek(name, max)
		} else {
			msgs, err = s.Queue.Get(name, max, time.Duration(vis)*time.Second)
		}
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		buf := getScratch()
		defer buf.release()
		buf.b = xmlwire.AppendMessagesList(buf.b[:0], msgs, peek)
		writeBody(w, http.StatusOK, xmlType, buf.b)
	case sub == "messages" && r.Method == http.MethodDelete:
		if err := engineDo(r, func() error { return s.Queue.ClearMessages(name) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case oneMessage && r.Method == http.MethodDelete:
		receipt := r.URL.Query().Get("popreceipt")
		if err := engineDo(r, func() error { return s.Queue.Delete(name, id, receipt) }); err != nil {
			writeError(w, err)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	case oneMessage && r.Method == http.MethodPut: // Update Message
		body, err := decodeMessageBody(r)
		if err != nil {
			writeError(w, err)
			return
		}
		q := r.URL.Query()
		vis, err := queryInt(q, "visibilitytimeout", 0)
		if err != nil {
			writeError(w, err)
			return
		}
		done := engineStart(r)
		msg, err := s.Queue.Update(name, id, q.Get("popreceipt"), body, time.Duration(vis)*time.Second)
		done()
		if err != nil {
			writeError(w, err)
			return
		}
		setHeader(w.Header(), hPopReceipt, msg.PopReceipt)
		setHeader(w.Header(), hTimeNextVisible, msg.NextVisible.UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusNoContent)
	default:
		writeMethodNotAllowed(w, r)
	}
}

// decodeMessageBody reads a Put or Update Message body: the message, out
// of its base64, in a buffer the engine may keep.
func decodeMessageBody(r *http.Request) (payload.Payload, error) {
	buf := getScratch()
	defer buf.release()
	raw, err := readBody(r, 2*storecommon.MaxMessageSize, buf)
	if err != nil {
		return payload.Payload{}, err
	}
	data, err := xmlwire.DecodeQueueMessage(raw)
	if err != nil {
		return payload.Payload{}, storecommon.Errf(storecommon.CodeInvalidInput, 400, "bad message body: %v", err)
	}
	return payload.Bytes(data), nil
}

// queryInt reads an optional integer query parameter. A value that is
// present but not a number is the client's error, not the default.
func queryInt(q url.Values, key string, def int) (int, error) {
	s := q.Get(key)
	if s == "" {
		return def, nil
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, storecommon.Errf(storecommon.CodeOutOfRangeQueryParameterValue, 400, "%s=%q is not an integer", key, s)
	}
	return n, nil
}
