package storecommon

import (
	"strconv"
	"sync/atomic"
	"time"
)

// ETagGen produces strictly increasing entity tags. Azure's real ETags are
// timestamp-derived; a counter component keeps ours unique even when the
// virtual clock does not advance between mutations. ETagGen is safe for
// concurrent use.
type ETagGen struct {
	counter atomic.Uint64
}

// Next returns a fresh ETag incorporating now: W/"datetime'<now>';<n>",
// built in place so that the returned string is its only allocation.
func (g *ETagGen) Next(now time.Time) string {
	n := g.counter.Add(1)
	var buf [64]byte // 12 + 28 + 2 + at most 20 digits + 1
	b := append(buf[:0], `W/"datetime'`...)
	b = appendStamp(b, now.UTC())
	b = strconv.AppendUint(append(b, "';"...), n, 10)
	return string(append(b, '"'))
}

// appendStamp appends t as t.AppendFormat(b, "2006-01-02T15:04:05.0000000Z")
// does for a year in 1…9999: the layout is fixed-width, so each field's
// digits are written directly, zero-padded, each followed by its separator.
func appendStamp(b []byte, t time.Time) []byte {
	year, month, day := t.Date()
	hour, min, sec := t.Clock()
	for i, f := range [...]struct{ v, width int }{
		{year, 4}, {int(month), 2}, {day, 2}, {hour, 2}, {min, 2}, {sec, 2}, {t.Nanosecond() / 100, 7},
	} {
		b = append(b, "0000000"[:f.width]...)
		for j, v := len(b)-1, f.v; v > 0; j, v = j-1, v/10 {
			b[j] = byte('0' + v%10)
		}
		b = append(b, "--T::.Z"[i])
	}
	return b
}

// ETagAny is the wildcard ETag: a condition of ETagAny matches any current
// tag (the paper's benchmark uses unconditional updates via "*").
const ETagAny = "*"

// ETagMatches reports whether a request condition matches the stored tag.
// An empty condition means "no condition" and matches.
func ETagMatches(condition, stored string) bool {
	return condition == "" || condition == ETagAny || condition == stored
}
