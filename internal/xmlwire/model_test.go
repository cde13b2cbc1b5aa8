package xmlwire

import (
	"encoding/base64"
	"encoding/xml"
	"net/http"
	"time"

	"azurebench/internal/queuestore"
)

// The reference model: the encoding/xml structs and the code around them
// that package rest and package sdk each carried until this package took
// the queue bodies over, kept as they were. The differential and fuzz tests
// hold the append-and-scan codec to it.

// modelQueueMessage is the Put/Update Message body, as both packages
// declared it.
type modelQueueMessage struct {
	XMLName     xml.Name `xml:"QueueMessage"`
	MessageText string   `xml:"MessageText"`
}

// modelMessagesList is the Get/Peek Messages response of package rest.
type modelMessagesList struct {
	XMLName  xml.Name          `xml:"QueueMessagesList"`
	Messages []modelMessageOut `xml:"QueueMessage"`
}

type modelMessageOut struct {
	MessageID       string `xml:"MessageId"`
	InsertionTime   string `xml:"InsertionTime"`
	ExpirationTime  string `xml:"ExpirationTime"`
	PopReceipt      string `xml:"PopReceipt,omitempty"`
	TimeNextVisible string `xml:"TimeNextVisible,omitempty"`
	DequeueCount    int    `xml:"DequeueCount"`
	MessageText     string `xml:"MessageText"`
}

// modelEncodeQueueMessage is the body sdk.QueueClient.Put and Update sent.
func modelEncodeQueueMessage(body []byte) []byte {
	msg, err := xml.Marshal(modelQueueMessage{MessageText: base64.StdEncoding.EncodeToString(body)})
	if err != nil {
		panic(err)
	}
	return msg
}

// modelQueueMessageText is the XML half of rest.decodeMessageBody: the
// message text before it is taken out of its base64.
func modelQueueMessageText(raw []byte) (string, error) {
	var msg modelQueueMessage
	err := xml.Unmarshal(raw, &msg)
	return msg.MessageText, err
}

// modelEncodeMessagesList is rest's messagesOut followed by its writeXML.
// The one departure: a peeked message's TimeNextVisible is left empty, and
// so out, where rest formatted the zero time it has.
func modelEncodeMessagesList(msgs []queuestore.Message, peek bool) []byte {
	var out modelMessagesList
	for _, m := range msgs {
		o := modelMessageOut{
			MessageID:       m.ID,
			InsertionTime:   m.Inserted.UTC().Format(http.TimeFormat),
			ExpirationTime:  m.Expires.UTC().Format(http.TimeFormat),
			PopReceipt:      m.PopReceipt,
			TimeNextVisible: m.NextVisible.UTC().Format(http.TimeFormat),
			DequeueCount:    m.DequeueCount,
			MessageText:     base64.StdEncoding.EncodeToString(m.Body.AsBytes()),
		}
		if peek {
			o.TimeNextVisible = ""
		}
		out.Messages = append(out.Messages, o)
	}
	body, err := xml.MarshalIndent(out, "", "  ")
	if err != nil {
		panic(err)
	}
	return append([]byte(xml.Header), body...)
}

// modelMessage is sdk.Message.
type modelMessage struct {
	ID           string
	Body         []byte
	PopReceipt   string
	DequeueCount int
	NextVisible  time.Time
}

// modelDecodeMessagesList is the second half of sdk.QueueClient.fetch.
func modelDecodeMessagesList(raw []byte) ([]modelMessage, error) {
	var out struct {
		Messages []struct {
			MessageID       string `xml:"MessageId"`
			PopReceipt      string `xml:"PopReceipt"`
			DequeueCount    int    `xml:"DequeueCount"`
			TimeNextVisible string `xml:"TimeNextVisible"`
			MessageText     string `xml:"MessageText"`
		} `xml:"QueueMessage"`
	}
	if err := xml.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	var msgs []modelMessage
	for _, m := range out.Messages {
		body, err := base64.StdEncoding.DecodeString(m.MessageText)
		if err != nil {
			return nil, err
		}
		nv, _ := time.Parse(http.TimeFormat, m.TimeNextVisible)
		msgs = append(msgs, modelMessage{
			ID:           m.MessageID,
			Body:         body,
			PopReceipt:   m.PopReceipt,
			DequeueCount: m.DequeueCount,
			NextVisible:  nv,
		})
	}
	return msgs, nil
}
