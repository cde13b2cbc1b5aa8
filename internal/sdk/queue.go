package sdk

import (
	"encoding/xml"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"azurebench/internal/xmlwire"
)

// QueueClient talks to the queue service.
type QueueClient struct {
	c *Client
}

// Message is a dequeued or peeked queue message.
type Message struct {
	ID           string
	Body         []byte
	PopReceipt   string
	DequeueCount int
	NextVisible  time.Time
}

// Create creates a queue.
func (q *QueueClient) Create(name string) error {
	_, err := q.c.do(request{op: "Create", method: http.MethodPut, path: "/queue/" + esc(name)})
	return err
}

// Delete deletes a queue.
func (q *QueueClient) Delete(name string) error {
	_, err := q.c.do(request{op: "Delete", method: http.MethodDelete, path: "/queue/" + esc(name)})
	return err
}

// List lists queue names by prefix.
func (q *QueueClient) List(prefix string) ([]string, error) {
	var query string
	if prefix != "" {
		query = "prefix=" + url.QueryEscape(prefix)
	}
	resp, err := q.c.do(request{op: "List", method: http.MethodGet, path: "/queue/", query: query})
	if err != nil {
		return nil, err
	}
	var out struct {
		Queues []string `xml:"Queues>Queue>Name"`
	}
	if err := xml.Unmarshal(resp.body, &out); err != nil {
		return nil, fmt.Errorf("sdk: bad queue list: %w", err)
	}
	return out.Queues, nil
}

// wireSeconds is d as the wire carries it, in whole seconds, rounded up:
// rounded down, a sub-second timeout would go out as 0, which the service
// reads as "use the default" (30 s of invisibility, a week to live).
func wireSeconds(d time.Duration) string {
	return strconv.FormatInt(int64((d+time.Second-1)/time.Second), 10)
}

// Put inserts a message (ttl 0 means the service maximum, one week).
func (q *QueueClient) Put(name string, body []byte, ttl time.Duration) error {
	var query string
	if ttl > 0 {
		query = "messagettl=" + wireSeconds(ttl)
	}
	_, err := q.c.do(request{op: "Put",
		method: http.MethodPost,
		path:   "/queue/" + esc(name) + "/messages",
		query:  query,
		body:   xmlwire.AppendQueueMessage(nil, body),
	})
	return err
}

// Get dequeues up to max messages with the given visibility timeout.
func (q *QueueClient) Get(name string, max int, visibility time.Duration) ([]Message, error) {
	query := "numofmessages=" + strconv.Itoa(max)
	if visibility > 0 {
		query += "&visibilitytimeout=" + wireSeconds(visibility)
	}
	return q.fetch(name, query)
}

// Peek observes up to max messages without dequeuing them; they carry no
// pop receipt and no NextVisible.
func (q *QueueClient) Peek(name string, max int) ([]Message, error) {
	return q.fetch(name, "numofmessages="+strconv.Itoa(max)+"&peekonly=true")
}

func (q *QueueClient) fetch(name, query string) ([]Message, error) {
	resp, err := q.c.do(request{op: "fetch",
		method: http.MethodGet,
		path:   "/queue/" + esc(name) + "/messages",
		query:  query,
	})
	if err != nil {
		return nil, err
	}
	wire, err := xmlwire.DecodeMessagesList(resp.body)
	if err != nil {
		return nil, fmt.Errorf("sdk: bad message list: %w", err)
	}
	if len(wire) == 0 {
		return nil, nil
	}
	msgs := make([]Message, len(wire))
	for i, m := range wire {
		msgs[i] = Message{
			ID:           m.ID,
			Body:         m.Body.AsBytes(),
			PopReceipt:   m.PopReceipt,
			DequeueCount: m.DequeueCount,
			NextVisible:  m.NextVisible,
		}
	}
	return msgs, nil
}

// DeleteMessage deletes a dequeued message with its pop receipt.
func (q *QueueClient) DeleteMessage(name, msgID, popReceipt string) error {
	_, err := q.c.do(request{op: "DeleteMessage",
		method: http.MethodDelete,
		path:   "/queue/" + esc(name) + "/messages/" + esc(msgID),
		query:  "popreceipt=" + url.QueryEscape(popReceipt),
	})
	return err
}

// Update replaces a dequeued message's body and visibility; it returns
// the new pop receipt.
func (q *QueueClient) Update(name, msgID, popReceipt string, body []byte, visibility time.Duration) (string, error) {
	resp, err := q.c.do(request{op: "Update",
		method: http.MethodPut,
		path:   "/queue/" + esc(name) + "/messages/" + esc(msgID),
		query:  "popreceipt=" + url.QueryEscape(popReceipt) + "&visibilitytimeout=" + wireSeconds(visibility),
		body:   xmlwire.AppendQueueMessage(nil, body),
	})
	if err != nil {
		return "", err
	}
	return resp.headers.Get(hPopReceipt), nil
}

// ApproximateCount returns the approximate message count.
func (q *QueueClient) ApproximateCount(name string) (int, error) {
	resp, err := q.c.do(request{op: "ApproximateCount", method: http.MethodGet, path: "/queue/" + esc(name)})
	if err != nil {
		return 0, err
	}
	return strconv.Atoi(resp.headers.Get(hApproximateCount))
}

// Clear removes all messages.
func (q *QueueClient) Clear(name string) error {
	_, err := q.c.do(request{op: "Clear", method: http.MethodDelete, path: "/queue/" + esc(name) + "/messages"})
	return err
}
