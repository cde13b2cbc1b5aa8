package queuestore

import (
	"errors"
	"testing"
	"time"

	"azurebench/internal/payload"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// savedQueue is one queue of a crafted section, written as Save writes it.
type savedQueue struct {
	name   string
	nextID uint64
	msgs   []*message
}

func queueSection(queues ...savedQueue) []byte {
	var w snap.Writer
	w.U64(1) // the non-FIFO generator's state
	w.U64(0) // the pop-receipt sequence
	w.Int(len(queues))
	for _, q := range queues {
		w.String(q.name)
		w.Time(time.Time{})
		w.StringMap(nil)
		w.U64(q.nextID)
		w.Int(len(q.msgs))
		for _, m := range q.msgs {
			saveMessage(&w, m)
		}
	}
	return w.Bytes()
}

func savedMsg(id string) *message {
	return &message{id: id, body: payload.Zero(8), expires: time.Unix(1<<40, 0)}
}

func loadQueues(data []byte) error {
	return New(&vclock.Manual{}).Load(snap.NewReader(data))
}

func TestLoadTakesWhatSaveWrites(t *testing.T) {
	data := queueSection(
		savedQueue{"jobs", 2, []*message{savedMsg("jobs-msg-1"), savedMsg("jobs-msg-2")}},
		savedQueue{"done", 0, nil},
	)
	if err := loadQueues(data); err != nil {
		t.Fatal(err)
	}
}

// TestLoadRefusesWhatTheEngineCannotServe: each section loaded cleanly
// once, and left a store that broke later — the ID index keeping one of
// two messages the orders both hold, a Put minting an ID that is taken, a
// queue silently replaced by a namesake, or a message whose ID the queue
// cannot have minted, so that no number finds it.
func TestLoadRefusesWhatTheEngineCannotServe(t *testing.T) {
	big := savedMsg("jobs-msg-1")
	big.body = payload.Zero(storecommon.MaxMessagePayload + 1)
	negative := savedMsg("jobs-msg-1")
	negative.dequeueCount = -1
	for name, data := range map[string][]byte{
		"queue saved twice": queueSection(savedQueue{"jobs", 0, nil}, savedQueue{"jobs", 0, nil}),
		"message ID saved twice": queueSection(
			savedQueue{"jobs", 1, []*message{savedMsg("jobs-msg-1"), savedMsg("jobs-msg-1")}}),
		"ID past the counter":    queueSection(savedQueue{"jobs", 1, []*message{savedMsg("jobs-msg-2")}}),
		"body over the limit":    queueSection(savedQueue{"jobs", 1, []*message{big}}),
		"negative dequeue count": queueSection(savedQueue{"jobs", 1, []*message{negative}}),
		"ID without its infix":   queueSection(savedQueue{"jobs", 7, []*message{savedMsg("jobs-7")}}),
		"ID with a leading zero": queueSection(savedQueue{"jobs", 7, []*message{savedMsg("jobs-msg-007")}}),
		"ID number zero":         queueSection(savedQueue{"jobs", 7, []*message{savedMsg("jobs-msg-0")}}),
		"another queue's ID":     queueSection(savedQueue{"jobs", 7, []*message{savedMsg("done-msg-1")}}),
	} {
		t.Run(name, func(t *testing.T) {
			if err := loadQueues(data); !errors.Is(err, snap.ErrCorrupt) {
				t.Errorf("Load = %v, want ErrCorrupt", err)
			}
		})
	}
}
