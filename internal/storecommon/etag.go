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
	b = now.UTC().AppendFormat(b, "2006-01-02T15:04:05.0000000Z")
	b = strconv.AppendUint(append(b, "';"...), n, 10)
	return string(append(b, '"'))
}

// ETagAny is the wildcard ETag: a condition of ETagAny matches any current
// tag (the paper's benchmark uses unconditional updates via "*").
const ETagAny = "*"

// ETagMatches reports whether a request condition matches the stored tag.
// An empty condition means "no condition" and matches.
func ETagMatches(condition, stored string) bool {
	return condition == "" || condition == ETagAny || condition == stored
}
