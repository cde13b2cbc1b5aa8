package xmlwire

import (
	"testing"
	"time"

	"azurebench/internal/payload"
	"azurebench/internal/queuestore"
)

// FuzzQueueMessageBody holds the request reader to its contract with the
// model on arbitrary bytes (checkBodyAgainstModel): it never panics, never
// accepts what encoding/xml rejects or with another text, and rejects what
// encoding/xml accepts only for a construct it is documented to refuse.
func FuzzQueueMessageBody(f *testing.F) {
	for _, c := range bodyCorners {
		f.Add([]byte(c.in))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		checkBodyAgainstModel(t, raw)
	})
}

// FuzzMessagesList feeds the SDK-side reader arbitrary bytes, which must
// not make it panic, and holds writer and reader to the model on a list
// built from the fuzzed fields (checkListAgainstModel).
func FuzzMessagesList(f *testing.F) {
	f.Add([]byte(header+"<QueueMessagesList></QueueMessagesList>"), "q-msg-1", "pr-1", []byte("hello"), int64(1337558400), 1, uint8(2), false)
	f.Add(AppendMessagesList(nil, []queuestore.Message{{ID: "<&>", Body: payload.Bytes(everyByte())}}, true),
		"\r\n\t\"'", "\xff\x00", []byte{}, int64(0), -1, uint8(1), true)
	f.Add([]byte("<QueueMessagesList><QueueMessage><DequeueCount>x</DequeueCount>"), "", "", []byte(nil), int64(-1), 0, uint8(0), false)
	f.Fuzz(func(t *testing.T, raw []byte, id, receipt string, body []byte, sec int64, count int, n uint8, peek bool) {
		DecodeMessagesList(raw)

		// The time format has four digits of year, and Expires is a week on.
		const span = 253402300800 - 7*24*3600
		at := time.Unix((sec%span+span)%span, 0)
		msgs := make([]queuestore.Message, n%4)
		for i := range msgs {
			msgs[i] = queuestore.Message{ID: id, PopReceipt: receipt, Body: payload.Bytes(body), DequeueCount: count + i,
				Inserted: at, Expires: at.Add(7 * 24 * time.Hour), NextVisible: at.Add(time.Duration(i) * time.Minute)}
		}
		checkListAgainstModel(t, msgs, peek)
	})
}
