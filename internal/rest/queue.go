package rest

import (
	"encoding/xml"
	"net/http"
	"strconv"
	"strings"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
	"azurebench/internal/storecommon"
	"azurebench/internal/xmlwire"
)

// serveQueue serves /queue/[{name}[/messages[/{id}]]]: at the account,
// GET enumerates queues.
func (s *Server) serveQueue(w http.ResponseWriter, r *request) error {
	name, sub := r.name, r.sub
	id, oneMessage := strings.CutPrefix(sub, "messages/")
	switch m := r.Method; {
	case name == "" && m == http.MethodGet:
		done := engineStart(r)
		queues := s.Queue.ListQueues(r.param("prefix"))
		done()
		writeXML(w, http.StatusOK, queueListXML{Queues: queues})
	case name == "":
		return methodNotAllowed(r)
	case sub == "" && m == http.MethodPut:
		return reply(w, http.StatusCreated, engineDo(r, func() error { return s.Queue.CreateQueue(name) }))
	case sub == "" && m == http.MethodDelete:
		return reply(w, http.StatusNoContent, engineDo(r, func() error { return s.Queue.DeleteQueue(name) }))
	case sub == "" && (m == http.MethodGet || m == http.MethodHead):
		// Queue metadata: the approximate message count header drives the
		// paper's barrier.
		done := engineStart(r)
		n, err := s.Queue.ApproximateCount(name)
		done()
		if err != nil {
			return err
		}
		setHeader(w.Header(), hApproximateCount, strconv.Itoa(n))
		w.WriteHeader(http.StatusOK)
	case sub == "messages" && m == http.MethodPost:
		body, err := decodeMessageBody(r)
		if err != nil {
			return err
		}
		ttl, err := r.intParam("messagettl", 0)
		if err != nil {
			return err
		}
		return reply(w, http.StatusCreated, engineDo(r, func() error {
			_, e := s.Queue.Put(name, body, time.Duration(ttl)*time.Second)
			return e
		}))
	case sub == "messages" && m == http.MethodGet:
		return s.getMessages(w, r, name)
	case sub == "messages" && m == http.MethodDelete:
		return reply(w, http.StatusNoContent, engineDo(r, func() error { return s.Queue.ClearMessages(name) }))
	case oneMessage && m == http.MethodDelete:
		receipt := r.param("popreceipt")
		return reply(w, http.StatusNoContent, engineDo(r, func() error { return s.Queue.Delete(name, id, receipt) }))
	case oneMessage && m == http.MethodPut: // Update Message
		body, err := decodeMessageBody(r)
		if err != nil {
			return err
		}
		vis, err := r.intParam("visibilitytimeout", 0)
		if err != nil {
			return err
		}
		done := engineStart(r)
		msg, err := s.Queue.Update(name, id, r.param("popreceipt"), body, time.Duration(vis)*time.Second)
		done()
		if err != nil {
			return err
		}
		setHeader(w.Header(), hPopReceipt, msg.PopReceipt)
		setHeader(w.Header(), hTimeNextVisible, msg.NextVisible.UTC().Format(http.TimeFormat))
		w.WriteHeader(http.StatusNoContent)
	default:
		return methodNotAllowed(r)
	}
	return nil
}

type queueListXML struct {
	XMLName xml.Name `xml:"EnumerationResults"`
	Queues  []string `xml:"Queues>Queue>Name"`
}

// getMessages serves Get Messages and Peek Messages.
func (s *Server) getMessages(w http.ResponseWriter, r *request, name string) error {
	// numofmessages is range-checked (1 to 32) by the engine, so both
	// front doors agree.
	max, err := r.intParam("numofmessages", 1)
	if err != nil {
		return err
	}
	peek := r.param("peekonly") == "true"
	vis := 0
	if !peek {
		if vis, err = r.intParam("visibilitytimeout", 0); err != nil {
			return err
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
		return err
	}
	buf := getScratch()
	defer buf.release()
	buf.b = xmlwire.AppendMessagesList(buf.b[:0], msgs, peek)
	writeBody(w, http.StatusOK, xmlType, buf.b)
	return nil
}

// decodeMessageBody reads a Put or Update Message body: the message, out
// of its base64, in a buffer the engine may keep.
func decodeMessageBody(r *request) (payload.Payload, error) {
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
