// Package xmlwire is the XML wire form of queue messages, shared by the
// REST emulator and the client SDK: the <QueueMessage> body of Put and
// Update Message, and the <QueueMessagesList> response of Get and Peek
// Messages.
//
// The writers append straight into the wire buffer and the readers scan
// the body once; neither goes through encoding/xml. The bytes are what
// xml.Marshal (request) and xml.Header + xml.MarshalIndent (response) give
// the structs kept in model_test.go, and the request reader accepts nothing
// xml.Unmarshal into that struct rejects. What it refuses although
// encoding/xml reads it is what no client of a queue service sends: <!…>
// directives (DOCTYPE), processing instructions other than the XML
// declaration, and element or attribute names that are not plain ASCII
// names — an element name with a namespace prefix, any name outside ASCII.
package xmlwire

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
)

// timeFormat is the format of the times in a message list.
const timeFormat = http.TimeFormat

// header is xml.Header.
const header = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"

// AppendQueueMessage appends the body of a Put or Update Message request
// carrying body, base64-encoded as the 2011-era SDKs sent it.
func AppendQueueMessage(dst, body []byte) []byte {
	const open, end = "<QueueMessage><MessageText>", "</MessageText></QueueMessage>"
	dst = slices.Grow(dst, len(open)+base64.StdEncoding.EncodedLen(len(body))+len(end))
	dst = append(dst, open...)
	dst = base64.StdEncoding.AppendEncode(dst, body)
	return append(dst, end...)
}

// DecodeQueueMessage reads a Put or Update Message request body and
// returns the message it carries, in a buffer of its own: raw may be
// reused. The root must be <QueueMessage>; of its children only
// <MessageText> counts (the last, when there are several), and what
// follows the root's end tag is not looked at.
func DecodeQueueMessage(raw []byte) ([]byte, error) {
	s := scan(raw)
	defer s.release()
	text, err := s.queueMessage()
	if err != nil {
		return nil, err
	}
	return decodeBase64(text)
}

// queueMessage reads a <QueueMessage> document through the root's end tag
// and returns its message text, valid until s is released.
func (s *scanner) queueMessage() ([]byte, error) {
	if err := s.root("QueueMessage"); err != nil {
		return nil, err
	}
	var text []byte
	for name, ok := s.child(); ok; name, ok = s.child() {
		if string(name) == "MessageText" {
			text = s.elementText()
		} else {
			s.skip()
		}
	}
	return text, s.err
}

// root advances to the document's root element, which must be <name>.
func (s *scanner) root(name string) error {
	got, ok := s.child()
	switch {
	case s.err != nil:
		return s.err
	case !ok:
		return fmt.Errorf("xmlwire: no <%s> element", name)
	case string(got) != name:
		return fmt.Errorf("xmlwire: expected element <%s> but have <%s>", name, got)
	}
	return nil
}

func decodeBase64(text []byte) ([]byte, error) {
	body := make([]byte, base64.StdEncoding.DecodedLen(len(text)))
	n, err := base64.StdEncoding.Decode(body, text)
	if err != nil {
		return nil, fmt.Errorf("message text is not base64: %w", err)
	}
	return body[:n], nil
}

// AppendMessagesList appends the response of Get Messages — or, with peek,
// of Peek Messages, whose messages have neither a pop receipt nor a time
// at which they become visible again.
func AppendMessagesList(dst []byte, msgs []queuestore.Message, peek bool) []byte {
	dst = append(dst, header+"<QueueMessagesList>"...)
	for i := range msgs {
		m := &msgs[i]
		dst = append(dst, "\n  <QueueMessage>\n    <MessageId>"...)
		dst = appendEscaped(dst, m.ID)
		dst = append(dst, "</MessageId>\n    <InsertionTime>"...)
		dst = m.Inserted.UTC().AppendFormat(dst, timeFormat)
		dst = append(dst, "</InsertionTime>\n    <ExpirationTime>"...)
		dst = m.Expires.UTC().AppendFormat(dst, timeFormat)
		dst = append(dst, "</ExpirationTime>"...)
		if m.PopReceipt != "" {
			dst = append(dst, "\n    <PopReceipt>"...)
			dst = appendEscaped(dst, m.PopReceipt)
			dst = append(dst, "</PopReceipt>"...)
		}
		if !peek {
			dst = append(dst, "\n    <TimeNextVisible>"...)
			dst = m.NextVisible.UTC().AppendFormat(dst, timeFormat)
			dst = append(dst, "</TimeNextVisible>"...)
		}
		dst = append(dst, "\n    <DequeueCount>"...)
		dst = strconv.AppendInt(dst, int64(m.DequeueCount), 10)
		dst = append(dst, "</DequeueCount>\n    <MessageText>"...)
		dst = base64.StdEncoding.AppendEncode(dst, m.Body.AsBytes())
		dst = append(dst, "</MessageText>\n  </QueueMessage>"...)
	}
	if len(msgs) > 0 {
		dst = append(dst, '\n')
	}
	return append(dst, "</QueueMessagesList>"...)
}

// escapes is what xml.EscapeText writes for the ASCII characters it does not
// copy.
var escapes = [...]string{'"': "&#34;", '\'': "&#39;", '&': "&amp;", '<': "&lt;", '>': "&gt;", '\t': "&#x9;", '\n': "&#xA;", '\r': "&#xD;"}

// appendEscaped appends s as character data, escaped the way
// xml.EscapeText escapes it: escapes, and U+FFFD for what is not UTF-8 or
// not a character XML allows.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); {
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case int(r) < len(escapes) && escapes[r] != "":
			dst = append(dst, escapes[r]...)
		case r < 0x20 || r == 0xFFFE || r == 0xFFFF || r == utf8.RuneError && n == 1:
			dst = append(dst, "\uFFFD"...)
		default:
			dst = append(dst, s[i:i+n]...)
		}
		i += n
	}
	return dst
}

// DecodeMessagesList reads the response AppendMessagesList writes. Each
// message body is in a buffer of its own; raw may be reused.
func DecodeMessagesList(raw []byte) ([]queuestore.Message, error) {
	s := scan(raw)
	defer s.release()
	if err := s.root("QueueMessagesList"); err != nil {
		return nil, err
	}
	var msgs []queuestore.Message
	for name, ok := s.child(); ok; name, ok = s.child() {
		if string(name) != "QueueMessage" {
			s.skip()
			continue
		}
		msgs = append(msgs, queuestore.Message{})
		if err := s.message(&msgs[len(msgs)-1]); err != nil {
			return nil, err
		}
	}
	if s.err != nil {
		return nil, s.err
	}
	return msgs, nil
}

// message reads the children of one <QueueMessage> into m.
func (s *scanner) message(m *queuestore.Message) error {
	for name, ok := s.child(); ok; name, ok = s.child() {
		text := s.elementText()
		if s.err != nil {
			break
		}
		var err error
		switch string(name) {
		case "MessageId":
			m.ID = string(text)
		case "PopReceipt":
			m.PopReceipt = string(text)
		case "InsertionTime":
			m.Inserted, err = time.Parse(timeFormat, string(text))
		case "ExpirationTime":
			m.Expires, err = time.Parse(timeFormat, string(text))
		case "TimeNextVisible":
			m.NextVisible, err = time.Parse(timeFormat, string(text))
		case "DequeueCount":
			m.DequeueCount, err = strconv.Atoi(string(bytes.TrimSpace(text)))
		case "MessageText":
			var body []byte
			body, err = decodeBase64(text)
			m.Body = payload.Bytes(body)
		}
		if err != nil {
			return fmt.Errorf("xmlwire: <%s>: %w", name, err)
		}
	}
	return s.err
}
