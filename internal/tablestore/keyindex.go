package tablestore

import (
	"fmt"
	"sort"
)

// keyIndex is a sorted set of keys. A table keeps one over its partition
// keys and every partition one over its row keys, maintained on insert
// and delete, so Query walks keys in order from a seek position instead of
// collecting and sorting every key on every call.
//
// The keys sit in a run of sorted chunks of at most maxChunk keys, every
// key of one chunk sorting before every key of the next. A seek is two
// binary searches; an insert or removal shifts keys within one chunk only,
// so its cost is bounded by maxChunk and not by the size of the set — one
// sorted slice made a random-order insert into a 100 000-row partition
// cost 100 times the insert itself (BenchmarkInsertRandomOrder). Chunks
// split when full and are dropped when empty, never merged: a set that
// shrinks keeps its chunk count until chunks empty out, which costs seek
// nothing it can measure.
type keyIndex struct {
	chunks [][]string
}

const maxChunk = 256

// keyIter is a position in a keyIndex. It is invalidated by insert and
// remove.
type keyIter struct {
	x     *keyIndex
	chunk int
	at    int
}

func (it *keyIter) valid() bool { return it.chunk < len(it.x.chunks) }
func (it *keyIter) key() string { return it.x.chunks[it.chunk][it.at] }

func (it *keyIter) next() {
	if it.at++; it.at == len(it.x.chunks[it.chunk]) {
		it.chunk, it.at = it.chunk+1, 0
	}
}

// seek returns the position of the first key >= k.
func (x *keyIndex) seek(k string) keyIter {
	c := sort.Search(len(x.chunks), func(i int) bool {
		chunk := x.chunks[i]
		return chunk[len(chunk)-1] >= k
	})
	if c == len(x.chunks) {
		return keyIter{x: x, chunk: c}
	}
	return keyIter{x: x, chunk: c, at: sort.SearchStrings(x.chunks[c], k)}
}

// insert adds k, which must be absent.
func (x *keyIndex) insert(k string) {
	it := x.seek(k)
	if !it.valid() {
		x.push(k)
		return
	}
	c, at := it.chunk, it.at
	if len(x.chunks[c]) == maxChunk {
		// Split the full chunk in half and insert into the half k falls in.
		half := maxChunk / 2
		right := append(make([]string, 0, maxChunk), x.chunks[c][half:]...)
		clear(x.chunks[c][half:])
		x.chunks[c] = x.chunks[c][:half]
		x.chunks = append(x.chunks, nil)
		copy(x.chunks[c+2:], x.chunks[c+1:])
		x.chunks[c+1] = right
		if at > half {
			c, at = c+1, at-half
		}
	}
	chunk := append(x.chunks[c], "")
	copy(chunk[at+1:], chunk[at:])
	chunk[at] = k
	x.chunks[c] = chunk
}

// remove drops k, which must be present.
func (x *keyIndex) remove(k string) {
	it := x.seek(k)
	chunk := x.chunks[it.chunk]
	if len(chunk) == 1 {
		last := len(x.chunks) - 1
		copy(x.chunks[it.chunk:], x.chunks[it.chunk+1:])
		x.chunks[last] = nil
		x.chunks = x.chunks[:last]
		return
	}
	copy(chunk[it.at:], chunk[it.at+1:])
	chunk[len(chunk)-1] = ""
	x.chunks[it.chunk] = chunk[:len(chunk)-1]
}

// push adds k, which must sort after every key present: it extends the
// last chunk, or starts a new one beside it, so that inserting in key
// order fills chunks up instead of leaving them half full.
func (x *keyIndex) push(k string) {
	if last := len(x.chunks) - 1; last >= 0 && len(x.chunks[last]) < maxChunk {
		x.chunks[last] = append(x.chunks[last], k)
		return
	}
	x.chunks = append(x.chunks, []string{k})
}

// appendInOrder adds k while a snapshot loads; it must sort after every
// key already present, as it does in anything Save wrote.
func (x *keyIndex) appendInOrder(k string) error {
	if n := len(x.chunks); n > 0 {
		if last := x.chunks[n-1]; last[len(last)-1] >= k {
			return fmt.Errorf("tablestore: snapshot key %q is out of order after %q", k, last[len(last)-1])
		}
	}
	x.push(k)
	return nil
}
