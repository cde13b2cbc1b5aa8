package queuestore

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"azurebench/internal/payload"
	snap "azurebench/internal/snapshot"
	"azurebench/internal/vclock"
)

// A script is a byte string decoded into queue operations: one byte picks
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
// same operations under one manual clock and one seed, and fails on the
// first difference in any return value, error, pop receipt or dequeue
// order. After the script — and wherever the script asks — the two Save
// sections must be equal byte for byte, and the engine is replaced by a
// fresh one loaded from those bytes, so rebuilt indexes face the rest of
// the script.
type scriptRun struct {
	t   testing.TB
	clk *vclock.Manual
	cfg Config
	eng *Store
	ref *model

	ids   []string  // every message ID a Put returned
	known []Message // every message a Get or Update returned, receipts and all
	step  int
}

var scriptQueues = [2]string{"script-a", "script-b"}

// Time-to-live, visibility and clock-step menus. Each mixes the default,
// values short enough for the script's clock steps to cross, and values
// the engine must reject.
var (
	scriptTTLs  = []time.Duration{0, time.Second, 5 * time.Second, 30 * time.Second, 10 * time.Minute, -time.Second, 8 * 24 * time.Hour}
	scriptVis   = []time.Duration{0, time.Second, 3 * time.Second, 45 * time.Second, -time.Second, 8 * 24 * time.Hour}
	scriptSteps = []time.Duration{time.Nanosecond, 500 * time.Millisecond, time.Second, 2 * time.Second, 7 * time.Second, time.Minute, 11 * time.Minute}
	scriptMax   = []int{1, 1, 2, 3, 4, 5, 32, 0, 33}
)

func runScript(t testing.TB, data []byte, window int) {
	cfg := Config{NonFIFOWindow: window, Seed: 42}
	clk := &vclock.Manual{}
	r := &scriptRun{t: t, clk: clk, cfg: cfg, eng: NewWithConfig(clk, cfg), ref: newModel(clk, cfg)}
	for _, name := range scriptQueues {
		r.same("create", nil, nil, r.eng.CreateQueue(name), r.ref.CreateQueue(name))
	}
	s := &script{data: data}
	for !s.done() {
		r.step++
		r.op(s)
		for _, name := range snap.SortedKeys(r.eng.queues) {
			if err := r.eng.queues[name].check(); err != nil {
				t.Fatalf("step %d: queue %q: %v", r.step, name, err)
			}
		}
	}
	r.checkpoint()
}

func (r *scriptRun) op(s *script) {
	kind := s.next()
	name := scriptQueues[kind>>7]
	switch kind & 0x7f % 18 {
	case 0, 1, 2: // put
		ttl := scriptTTLs[s.next()%len(scriptTTLs)]
		body := payload.String(fmt.Sprintf("body-%d", r.step))
		if ttl == 30*time.Second && r.step%5 == 0 {
			body = payload.Zero(49_153) // one byte over the usable payload
		}
		got, gerr := r.eng.Put(name, body, ttl)
		want, werr := r.ref.Put(name, body, ttl)
		r.same("put", got, want, gerr, werr)
		if gerr == nil {
			r.ids = append(r.ids, got.ID)
		}
	case 3, 4, 5: // get
		max := scriptMax[s.next()%len(scriptMax)]
		vis := scriptVis[s.next()%len(scriptVis)]
		got, gerr := r.eng.Get(name, max, vis)
		want, werr := r.ref.Get(name, max, vis)
		r.same("get", got, want, gerr, werr)
		r.known = append(r.known, got...)
	case 6: // peek
		max := scriptMax[s.next()%len(scriptMax)]
		got, gerr := r.eng.Peek(name, max)
		want, werr := r.ref.Peek(name, max)
		r.same("peek", got, want, gerr, werr)
	case 7, 8: // delete
		id, receipt := r.pick(s)
		r.same("delete", nil, nil, r.eng.Delete(name, id, receipt), r.ref.Delete(name, id, receipt))
	case 9: // update
		id, receipt := r.pick(s)
		vis := scriptVis[s.next()%len(scriptVis)]
		body := payload.String(fmt.Sprintf("update-%d", r.step))
		got, gerr := r.eng.Update(name, id, receipt, body, vis)
		want, werr := r.ref.Update(name, id, receipt, body, vis)
		r.same("update", got, want, gerr, werr)
		if gerr == nil {
			r.known = append(r.known, got)
		}
	case 10: // replica delete
		id, _ := r.pick(s)
		r.same("replica-delete", nil, nil, r.eng.ReplicaDelete(name, id), r.ref.ReplicaDelete(name, id))
	case 11, 12: // let time pass: across visibility timeouts, across TTLs
		r.clk.Advance(scriptSteps[s.next()%len(scriptSteps)])
	case 13: // count
		got, gerr := r.eng.ApproximateCount(name)
		want, werr := r.ref.ApproximateCount(name)
		r.same("count", got, want, gerr, werr)
	case 14: // rarer, state-resetting operations
		switch s.next() % 8 {
		case 0:
			r.same("clear", nil, nil, r.eng.ClearMessages(name), r.ref.ClearMessages(name))
		case 1:
			r.same("delete-queue", nil, nil, r.eng.DeleteQueue(name), r.ref.DeleteQueue(name))
		case 2, 3:
			r.same("create-queue", nil, nil, r.eng.CreateQueue(name), r.ref.CreateQueue(name))
		case 4: // the clock steps back, as vclock.Manual.Set allows
			back := r.clk.Now().Sub(vclock.Epoch) - scriptSteps[s.next()%len(scriptSteps)]
			if back < 0 {
				back = 0
			}
			r.clk.Set(back)
		case 5: // a week and more: everything expires
			r.clk.Advance(8 * 24 * time.Hour)
		default:
			r.checkpoint()
		}
	case 15:
		r.checkpoint()
	case 16, 17: // the fused call: the count, then one message got or peeked
		peek, vis := kind&0x7f%18 == 17, scriptVis[s.next()%len(scriptVis)]
		var got Message
		depth, ok, gerr := r.eng.Receive(name, peek, vis, &got)
		wantDepth, _ := r.ref.ApproximateCount(name)
		var want []Message
		var werr error
		if peek {
			want, werr = r.ref.Peek(name, 1)
		} else {
			want, werr = r.ref.Get(name, 1, vis)
		}
		var gotAll []Message
		if ok {
			gotAll = []Message{got}
			if !peek {
				r.known = append(r.known, got)
			}
		}
		r.same("receive", gotAll, want, gerr, werr)
		r.same("receive depth", depth, wantDepth, nil, nil)
	}
}

// pick chooses a message ID and pop receipt for Delete/Update: a pair a
// Get or Update really returned (recent ones are usually still current,
// old ones stale), one message's ID with another's receipt, or an ID
// that was never dequeued with no receipt at all.
func (r *scriptRun) pick(s *script) (id, receipt string) {
	how, a, b := s.next(), s.next(), s.next()
	if len(r.known) == 0 || how%8 == 7 {
		if len(r.ids) == 0 {
			return "no-such-message", "pr-0"
		}
		return r.ids[a%len(r.ids)], ""
	}
	recent := len(r.known) - 1 - a%min(len(r.known), 3)
	switch how % 8 {
	case 0, 1, 2, 3:
		return r.known[recent].ID, r.known[recent].PopReceipt
	case 4, 5:
		m := r.known[a%len(r.known)]
		return m.ID, m.PopReceipt
	default:
		return r.known[recent].ID, r.known[b%len(r.known)].PopReceipt
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
		r.t.Fatalf("step %d %s:\nengine %+v\nmodel  %+v", r.step, op, got, want)
	}
}

// encode renders a result through the snapshot writer, which normalises
// time.Time (a message that went through Load carries a different
// *Location than one that did not).
func encode(v any) []byte {
	var w snap.Writer
	switch v := v.(type) {
	case nil:
	case int:
		w.Int(v)
	case Message:
		encodeMessage(&w, v)
	case []Message:
		w.Int(len(v))
		for _, m := range v {
			encodeMessage(&w, m)
		}
	default:
		panic(fmt.Sprintf("encode: %T", v))
	}
	return w.Bytes()
}

func encodeMessage(w *snap.Writer, m Message) {
	w.String(m.ID)
	m.Body.Save(w)
	w.Time(m.Inserted)
	w.Time(m.Expires)
	w.Time(m.NextVisible)
	w.Int(m.DequeueCount)
	w.String(m.PopReceipt)
}

// checkpoint requires byte-identical Save sections, then swaps the engine
// for a fresh one loaded from them.
func (r *scriptRun) checkpoint() {
	r.t.Helper()
	var got, want snap.Writer
	r.eng.Save(&got)
	r.ref.Save(&want)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		r.t.Fatalf("step %d: Save sections differ (engine %d bytes, model %d bytes)", r.step, len(got.Bytes()), len(want.Bytes()))
	}
	fresh := NewWithConfig(r.clk, r.cfg)
	if err := fresh.Load(snap.NewReader(got.Bytes())); err != nil {
		r.t.Fatalf("step %d: Load: %v", r.step, err)
	}
	r.eng = fresh
}

// TestQuickScriptsAgainstModel runs generated scripts against engine and
// model, at strict FIFO and with the simulator's non-FIFO window.
func TestQuickScriptsAgainstModel(t *testing.T) {
	for _, window := range []int{1, 4} {
		window := window
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) {
			cfg := &quick.Config{
				MaxCount: 2000,
				Rand:     rand.New(rand.NewSource(int64(window))),
				Values: func(args []reflect.Value, rng *rand.Rand) {
					data := make([]byte, 16+rng.Intn(400))
					rng.Read(data)
					args[0] = reflect.ValueOf(data)
				},
			}
			if err := quick.Check(func(data []byte) bool {
				runScript(t, data, window)
				return true
			}, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// FuzzQueueScript lets the fuzzer search for a script on which the
// indexed engine and the reference model disagree.
func FuzzQueueScript(f *testing.F) {
	// Three puts, get all three for 1 s, step 2 s past that, peek two,
	// delete one with its lapsed (still matching) receipt, count.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 3, 3, 1, 11, 3, 6, 2, 7, 0, 0, 0, 13}, uint8(3))
	// TTLs of 1 s, 5 s and 30 s over both queues, then steps that cross
	// them one at a time with a count after each, then a checkpoint.
	f.Add([]byte{0, 1, 128, 2, 0, 3, 11, 2, 13, 11, 4, 141, 11, 5, 13, 15}, uint8(0))
	// An invisible prefix: six puts, get them all for 45 s, put, get the
	// one behind them. A minute on they are back in their old places;
	// get one, step the clock back 7 s, get and peek again.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 6, 3, 0, 0, 3, 0, 0, 11, 5, 3, 0, 0, 14, 4, 4, 3, 0, 0, 6, 6}, uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, window uint8) {
		if len(data) > 4096 {
			t.Skip("script longer than any finding needs")
		}
		runScript(t, data, 1+int(window%4))
	})
}
