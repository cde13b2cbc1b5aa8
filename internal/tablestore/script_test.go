package tablestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	snap "azurebench/internal/snapshot"
	"azurebench/internal/storecommon"
	"azurebench/internal/vclock"
)

// A script is a byte string decoded into table operations: one byte picks
// the operation, the next few its arguments. Reading past the end yields
// zeros, so every byte string is a valid script — which is what lets
// testing/quick and the native fuzzer share one interpreter.
type script struct {
	data []byte
	pos  int
}

func (s *script) done() bool { return s.pos >= len(s.data) }

func (s *script) next() int {
	if s.done() {
		return 0
	}
	b := s.data[s.pos]
	s.pos++
	return int(b)
}

// scriptRun drives the indexed engine and the reference model through the
// same operations under one manual clock, and fails on the first
// difference in any returned entity, ETag, continuation mark, failing
// batch index or error. After the script — and wherever the script asks —
// the two Save sections must be equal byte for byte, and the engine is
// replaced by a fresh one loaded from those bytes, so rebuilt indexes face
// the rest of the script.
type scriptRun struct {
	t   testing.TB
	clk *vclock.Manual
	eng *Store
	ref *model

	etags []string // every ETag a mutation returned: the stock of stale conditions
	step  int
}

var (
	scriptTables = [2]string{"ScriptA", "ScriptB"}
	scriptPKs    = []string{"p0", "p1", "p2", "p3", "p1x", "bad/key"}
	scriptRKs    = []string{"r0", "r1", "r2", "r3", "r4", "r5", "r6", "r7", "", "r1\\"}
	scriptCmps   = []string{"eq", "ne", "gt", "ge", "lt", "le"}
)

func runScript(t testing.TB, data []byte) {
	clk := &vclock.Manual{}
	r := &scriptRun{t: t, clk: clk, eng: New(clk), ref: newModel(clk)}
	for _, name := range scriptTables {
		r.same("create", nil, nil, r.eng.CreateTable(name), r.ref.CreateTable(name))
	}
	s := &script{data: data}
	for !s.done() {
		r.step++
		r.op(s)
	}
	r.checkpoint()
}

func (r *scriptRun) op(s *script) {
	kind := s.next()
	table := scriptTables[kind>>7]
	switch kind & 0x7f % 16 {
	case 0, 1, 2, 3: // insert, upsert
		e := r.entity(s)
		mode := []insertMode{insertStrict, insertStrict, insertReplace, insertMerge}[kind&0x7f%16]
		var got Row
		var gerr error
		switch mode {
		case insertStrict:
			got, gerr = r.eng.Insert(table, e)
		case insertReplace:
			got, gerr = r.eng.InsertOrReplace(table, e)
		case insertMerge:
			got, gerr = r.eng.InsertOrMerge(table, e)
		}
		want, werr := r.ref.insert(table, e, mode)
		r.mutated("insert", got, want, gerr, werr)
	case 4: // replace
		e := r.entity(s)
		cond := r.condition(s, table, e.PartitionKey, e.RowKey)
		got, gerr := r.eng.Replace(table, e, cond)
		want, werr := r.ref.update(table, e, cond, false)
		r.mutated("replace", got, want, gerr, werr)
	case 5: // merge
		e := r.entity(s)
		cond := r.condition(s, table, e.PartitionKey, e.RowKey)
		got, gerr := r.eng.Merge(table, e, cond)
		want, werr := r.ref.update(table, e, cond, true)
		r.mutated("merge", got, want, gerr, werr)
	case 6: // delete
		pk, rk := r.key(s)
		cond := r.condition(s, table, pk, rk)
		r.same("delete", nil, nil, r.eng.Delete(table, pk, rk, cond), r.ref.Delete(table, pk, rk, cond))
	case 7: // get
		pk, rk := r.key(s)
		got, gerr := r.eng.Get(table, pk, rk)
		want, werr := r.ref.Get(table, pk, rk)
		r.same("get", got, want, gerr, werr)
	case 8, 9: // batch
		ops := r.batch(s, table)
		got, gerr := r.eng.ExecuteBatch(table, ops)
		want, werr := r.ref.ExecuteBatch(table, ops)
		r.same("batch", got, want, gerr, werr)
	case 10, 11, 12: // query, chasing continuation marks for a few pages
		filter := r.filter(s, 0)
		top := []int{0, 1, 2, 3, 5, 1000, -1, 1001}[s.next()%8]
		from := Continuation{}
		if s.next()%4 == 0 { // start from a mark no page handed out
			from.NextPartitionKey, from.NextRowKey = r.key(s)
		}
		for page := 0; page < 4; page++ {
			got, gerr := r.eng.Query(table, filter, top, from)
			want, werr := r.ref.Query(table, filter, top, from)
			r.same(fmt.Sprintf("query %q top %d from %+v", filter, top, from), got, want, gerr, werr)
			if gerr != nil || got.Next.IsZero() {
				break
			}
			from = got.Next
		}
	case 13: // let time pass, so ETags and Timestamps move
		r.clk.Advance(time.Duration(1+s.next()) * time.Second)
	case 14: // rarer operations
		switch s.next() % 6 {
		case 0:
			r.same("delete-table", nil, nil, r.eng.DeleteTable(table), r.ref.DeleteTable(table))
		case 1, 2:
			r.same("create-table", nil, nil, r.eng.CreateTable(table), r.ref.CreateTable(table))
		case 3:
			got, gerr := r.eng.EntityCount(table)
			want, werr := r.ref.EntityCount(table)
			r.same("entity-count", got, want, gerr, werr)
		case 4:
			got, gerr := r.eng.PartitionCount(table)
			want, werr := r.ref.PartitionCount(table)
			r.same("partition-count", got, want, gerr, werr)
		default:
			r.checkpoint()
		}
	case 15:
		r.checkpoint()
	}
}

func (r *scriptRun) key(s *script) (pk, rk string) {
	a, b := s.next(), s.next()
	// The odd keys (a prefix of another, an invalid one, the empty one)
	// are rarer than the plain ones.
	pk = scriptPKs[a%4]
	if a >= 224 {
		pk = scriptPKs[a%len(scriptPKs)]
	}
	rk = scriptRKs[b%8]
	if b >= 224 {
		rk = scriptRKs[b%len(scriptRKs)]
	}
	return pk, rk
}

// entity builds a small entity. Flag is what makes filters fail: it is a
// boolean on some entities, a string on others, absent on the rest.
func (r *scriptRun) entity(s *script) *Entity {
	pk, rk := r.key(s)
	shape := s.next()
	e := &Entity{PartitionKey: pk, RowKey: rk, Props: map[string]Value{"V": Int32(int32(shape % 8))}}
	switch shape >> 3 % 4 {
	case 0:
		e.Props["Flag"] = Bool(shape&0x40 != 0)
	case 1:
		e.Props["Flag"] = String("not a bool")
	}
	if shape&0x80 != 0 {
		e.Props["S"] = String(fmt.Sprintf("s%d", shape%3))
	}
	if shape == 255 {
		e.Props["Timestamp"] = Int32(1) // reserved name
	}
	return e
}

// condition picks an If-Match value: none, the wildcard, the entity's
// current ETag, one it had earlier (or another entity's), or garbage.
func (r *scriptRun) condition(s *script, table, pk, rk string) string {
	how, which := s.next(), s.next()
	switch how % 8 {
	case 0:
		return ""
	case 1:
		return storecommon.ETagAny
	case 2, 3, 4:
		if cur, err := r.ref.Get(table, pk, rk); err == nil {
			return cur.ETag()
		}
		return storecommon.ETagAny
	case 5, 6:
		if len(r.etags) > 0 {
			return r.etags[which%len(r.etags)]
		}
	}
	return `W/"datetime'2012-05-21T00:00:00.0000000Z';0"`
}

// batch builds an entity-group transaction of one to six operations,
// usually well-formed, sometimes straying to another partition or
// repeating a row key.
func (r *scriptRun) batch(s *script, table string) []BatchOp {
	n := 1 + s.next()%6
	pk, _ := r.key(s)
	var ops []BatchOp
	for i := 0; i < n; i++ {
		e := r.entity(s)
		if s.next()%16 != 0 {
			e.PartitionKey = pk
		}
		kind := BatchOpKind(s.next() % 7) // 6 is not a kind
		op := BatchOp{Kind: kind, Entity: e}
		if kind >= BatchReplace {
			op.IfMatch = r.condition(s, table, e.PartitionKey, e.RowKey)
		}
		ops = append(ops, op)
	}
	return ops
}

// filter generates a filter expression: key comparisons the planner can
// seek on, comparisons it cannot, operands whose evaluation fails on some
// entities, and and/or/not over them in every order.
func (r *scriptRun) filter(s *script, depth int) string {
	choice := s.next()
	if depth < 3 {
		switch choice % 16 {
		case 0, 1, 2:
			return r.filter(s, depth+1) + " and " + r.filter(s, depth+1)
		case 3:
			return r.filter(s, depth+1) + " or " + r.filter(s, depth+1)
		case 4:
			return "not " + r.filter(s, depth+1)
		case 5:
			return "(" + r.filter(s, depth+1) + ")"
		}
	}
	pk, rk := r.key(s)
	cmp := scriptCmps[s.next()%len(scriptCmps)]
	switch choice >> 4 {
	case 0, 1, 2, 3:
		return "PartitionKey " + cmp + " " + quote(pk)
	case 4, 5, 6, 7:
		return "RowKey " + cmp + " " + quote(rk)
	case 8:
		return fmt.Sprintf("V %s %d", cmp, choice%8)
	case 9:
		return "Flag"
	case 10:
		return "S " + cmp + " 's1'"
	case 11:
		return "PartitionKey " + cmp + " guid" + quote(pk)
	case 12:
		return quote(pk) + " " + cmp + " PartitionKey"
	case 13:
		return []string{"true", "false", "Missing", "S", "RowKey " + cmp + " PartitionKey"}[choice%5]
	case 14:
		return "Timestamp " + cmp + " datetime'2012-05-21T00:00:30Z'"
	}
	return []string{"", "PartitionKey eq", "((RowKey ge 'r1')", "RowKey ge 'r1' garbage", "V eq 1.5.2"}[choice%5]
}

func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// mutated is same for operations that return the stored entity; it also
// banks the new ETag as a future stale condition.
func (r *scriptRun) mutated(op string, got, want Row, gerr, werr error) {
	r.t.Helper()
	r.same(op, got, want, gerr, werr)
	if gerr == nil {
		r.etags = append(r.etags, got.ETag())
		if got.Size() != got.Clone().Size() {
			r.t.Fatalf("step %d %s: row reads size %d, a copy of it %d", r.step, op, got.Size(), got.Clone().Size())
		}
	}
}

// same fails the test unless engine and model returned the same value
// and the same error.
func (r *scriptRun) same(op string, got, want any, gerr, werr error) {
	r.t.Helper()
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		r.t.Fatalf("step %d %s: engine error %v, model error %v", r.step, op, gerr, werr)
	}
	if !bytes.Equal(encode(got), encode(want)) {
		r.t.Fatalf("step %d %s:\nengine %s\nmodel  %s", r.step, op, render(got), render(want))
	}
}

// encode renders a result through the snapshot writer, which normalises
// time.Time (an entity that went through Load carries a different
// *Location than one that did not).
func encode(v any) []byte {
	var w snap.Writer
	switch v := v.(type) {
	case nil:
	case int:
		w.Int(v)
	case Row:
		if v.e != nil {
			saveEntity(&w, v.e)
		}
	case QueryResult:
		w.Int(len(v.Entities))
		for _, e := range v.Entities {
			saveEntity(&w, e.e)
		}
		w.String(v.Next.NextPartitionKey)
		w.String(v.Next.NextRowKey)
	default:
		panic(fmt.Sprintf("encode: %T", v))
	}
	return w.Bytes()
}

func render(v any) string {
	if res, ok := v.(QueryResult); ok {
		var b strings.Builder
		for _, e := range res.Entities {
			fmt.Fprintf(&b, "(%s,%s,%s) ", e.PartitionKey(), e.RowKey(), e.ETag())
		}
		return fmt.Sprintf("%snext %+v", b.String(), res.Next)
	}
	if row, ok := v.(Row); ok && row.e != nil {
		return fmt.Sprintf("%+v", *row.e)
	}
	return fmt.Sprintf("%+v", v)
}

// checkpoint requires byte-identical Save sections, then swaps the engine
// for a fresh one loaded from them.
func (r *scriptRun) checkpoint() {
	r.t.Helper()
	var got, want snap.Writer
	r.sizesRecorded(r.eng)
	r.eng.Save(&got)
	r.ref.Save(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		r.t.Fatalf("step %d: Save sections differ (engine %d bytes, model %d bytes)", r.step, len(got.Bytes()), len(want.Bytes()))
	}
	fresh := New(r.clk)
	if err := fresh.Load(snap.NewReader(got.Bytes())); err != nil {
		r.t.Fatalf("step %d: Load: %v", r.step, err)
	}
	r.sizesRecorded(fresh)
	r.eng = fresh
}

// sizesRecorded fails the test unless every row s holds carries its size,
// recorded when it was filed, as a copy of the row measures it.
func (r *scriptRun) sizesRecorded(s *Store) {
	r.t.Helper()
	for _, t := range s.tables {
		for _, p := range t.partitions {
			for _, e := range p.rows {
				if row := (Row{e}); row.Size() != row.Clone().Size() {
					r.t.Fatalf("step %d: row (%q,%q) recorded size %d, measures %d",
						r.step, e.PartitionKey, e.RowKey, row.Size(), row.Clone().Size())
				}
			}
		}
	}
}

// TestQuickScriptsAgainstModel runs generated scripts against engine and
// model.
func TestQuickScriptsAgainstModel(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 2000,
		Rand:     rand.New(rand.NewSource(1)),
		Values: func(args []reflect.Value, rng *rand.Rand) {
			data := make([]byte, 16+rng.Intn(600))
			rng.Read(data)
			args[0] = reflect.ValueOf(data)
		},
	}
	if err := quick.Check(func(data []byte) bool {
		runScript(t, data)
		return true
	}, cfg); err != nil {
		t.Fatal(err)
	}
}

// FuzzTableScript lets the fuzzer search for a script on which the
// indexed engine and the reference model disagree.
func FuzzTableScript(f *testing.F) {
	// Rows r0..r3 in p1 and one in p2, then "PartitionKey eq 'p1' and
	// RowKey ge 'r1'" two to a page, page by page.
	f.Add([]byte{0, 1, 0, 16, 0, 1, 1, 16, 0, 1, 2, 16, 0, 1, 3, 16, 0, 2, 1, 16, 10, 0, 6, 1, 0, 0, 70, 0, 1, 3, 2, 1})
	// Error ordering: p0 holds a row whose Flag is a string. "Flag and
	// PartitionKey eq 'p1'" fails on it, "PartitionKey eq 'p1' and Flag"
	// never reaches it; "PartitionKey eq guid'p1'" matches nothing.
	f.Add([]byte{0, 0, 0, 8, 0, 1, 0, 64, 10, 0, 150, 0, 0, 0, 6, 1, 0, 0, 0, 1, 10, 0, 6, 1, 0, 0, 150, 0, 0, 0, 0, 1, 10, 182, 1, 0, 0, 0, 1})
	// A batch that deletes a partition's only row and inserts another, a
	// checkpoint, then a batch whose first insert collides.
	f.Add([]byte{0, 2, 2, 16, 8, 1, 2, 0, 2, 2, 16, 1, 5, 1, 0, 2, 3, 16, 1, 0, 15, 8, 1, 2, 0, 2, 3, 16, 1, 0, 2, 4, 16, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			t.Skip("script longer than any finding needs")
		}
		runScript(t, data)
	})
}

// TestKeyIndexAgainstSortedSlice drives keyIndex past several chunk
// splits and back down to empty against a plain sorted slice.
func TestKeyIndexAgainstSortedSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x keyIndex
	var ref []string
	check := func() {
		t.Helper()
		probe := fmt.Sprintf("k%05d", rng.Intn(4000))
		var got []string
		for it := x.seek(probe); it.valid(); it.next() {
			got = append(got, it.key())
		}
		want := ref[sort.SearchStrings(ref, probe):]
		if len(got) != len(want) {
			t.Fatalf("seek(%q): %d keys, want %d", probe, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seek(%q)[%d] = %q, want %q", probe, i, got[i], want[i])
			}
		}
		for _, chunk := range x.chunks {
			if len(chunk) == 0 || len(chunk) > maxChunk {
				t.Fatalf("chunk of %d keys", len(chunk))
			}
		}
	}
	// Grow in ascending order first, then at random, then shrink to empty.
	for phase, steps := range []int{600, 3000, 6000} {
		for i := 0; i < steps; i++ {
			k := fmt.Sprintf("k%05d", rng.Intn(4000))
			if phase == 0 {
				k = fmt.Sprintf("a%05d", i)
			}
			at := sort.SearchStrings(ref, k)
			present := at < len(ref) && ref[at] == k
			switch {
			case !present && phase < 2:
				x.insert(k)
				ref = append(ref, "")
				copy(ref[at+1:], ref[at:])
				ref[at] = k
			case phase == 2 && len(ref) > 0:
				at = rng.Intn(len(ref))
				x.remove(ref[at])
				ref = append(ref[:at], ref[at+1:]...)
			}
			if i%50 == 0 {
				check()
			}
		}
		check()
	}
	if len(ref) != 0 || len(x.chunks) != 0 {
		t.Fatalf("after removing everything: %d reference keys, %d chunks", len(ref), len(x.chunks))
	}
	// Load's path: keys in order are taken, anything else is refused.
	if err := x.appendInOrder("b"); err != nil {
		t.Fatal(err)
	}
	if x.appendInOrder("b") == nil || x.appendInOrder("a") == nil {
		t.Fatal("appendInOrder took a key that does not sort after the last")
	}
}
