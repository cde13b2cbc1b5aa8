package sim

import (
	"cmp"
	"fmt"
	"hash/crc64"
	"slices"
	"time"

	"azurebench/internal/snapshot"
)

// OnTime schedules fn to run in kernel context at virtual time at. It is
// the checkpoint hook: unlike Go, no process is spawned, so fn runs with
// no live goroutine of its own and may observe — but must not mutate —
// simulation state. Scheduling the hook consumes one event sequence
// number up front, which shifts every later event's tie-breaker
// uniformly and therefore preserves the relative order of all other
// events: a hooked run and an unhooked run fire the same events in the
// same order at the same times.
func (e *Env) OnTime(at time.Duration, fn func()) {
	e.push(event{at: at, who: -1})
	e.hooks[e.seq] = fn
}

// SnapshotSection implements snapshot.Snapshotter.
func (e *Env) SnapshotSection() string { return "sim/env" }

// Save appends the kernel state: virtual clock, event/sequence counters,
// PRNG stream, process accounting, and a deterministic fingerprint of
// the pending events (count plus a CRC-64 over every (at, seq) pair).
// The events themselves cannot be serialized — they name coroutine
// stacks and closures — so restore either requires quiescence (nothing
// pending, direct Load) or replay verification, where this fingerprint
// proves the replayed queue matches the checkpointed one.
func (e *Env) Save(w *snapshot.Writer) {
	w.Duration(e.now)
	w.U64(e.seq)
	w.U64(e.fired)
	w.Int(e.nSpawn)
	w.Int(e.nLive)
	w.U64(e.rng.State())
	w.Int(e.events.n)
	w.U64(e.eventFingerprint())
}

// Load restores the kernel state into a quiescent environment: no event
// may be pending, in the snapshot or live, because pending events carry
// closures that cannot be rebuilt from bytes. Mid-run snapshots (events
// pending) are restored by replay instead.
func (e *Env) Load(r *snapshot.Reader) error {
	now := r.Duration()
	seq := r.U64()
	fired := r.U64()
	nSpawn := r.Int()
	nLive := r.Int()
	rngState := r.U64()
	nEvents := r.Int()
	r.U64() // event fingerprint, meaningful only when nEvents > 0
	if err := r.Err(); err != nil {
		return err
	}
	if nEvents != 0 || nLive != 0 {
		return fmt.Errorf("sim: snapshot is not quiescent (%d pending events, %d live procs); only quiescent snapshots can be loaded directly", nEvents, nLive)
	}
	if e.events.n != 0 || e.nLive != 0 {
		return fmt.Errorf("sim: loading into a non-quiescent env (%d pending events, %d live procs)", e.events.n, e.nLive)
	}
	e.now = now
	e.seq = seq
	e.fired = fired
	e.nSpawn = nSpawn
	e.rng.SetState(rngState)
	return nil
}

var eventCRCTable = crc64.MakeTable(crc64.ECMA)

// eventFingerprint hashes the (at, seq) pairs of all pending events in
// the order they will fire, sorting a copy: where an event sits in the
// queue is not canonical and never enters the hash. Two identical replays
// have the same pending events, so equal fingerprints; any drift in event
// timing or scheduling order changes the hash.
func (e *Env) eventFingerprint() uint64 {
	if e.events.n == 0 {
		return 0
	}
	evs := e.events.appendTo(nil)
	slices.SortFunc(evs, func(a, b event) int {
		return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
	})
	var buf [16]byte
	crc := crc64.Update(0, eventCRCTable, nil)
	for _, ev := range evs {
		at := uint64(ev.at)
		sq := ev.seq
		for i := 0; i < 8; i++ {
			buf[i] = byte(at >> (56 - 8*i))
			buf[8+i] = byte(sq >> (56 - 8*i))
		}
		crc = crc64.Update(crc, eventCRCTable, buf[:])
	}
	return crc
}

// Save appends the station's utilisation state: the occupancy and the
// telemetry integrals. Parked waiter processes cannot be serialized, so
// only their count is recorded (zero at quiescence; the replay-verified
// path never loads resources directly).
func (r *Resource) Save(w *snapshot.Writer) {
	w.String(r.name)
	w.Int(r.capacity)
	w.Int(r.inUse)
	w.Int(r.waiters.len())
	w.U64(r.acquired)
	w.Duration(r.busyTime)
	w.Duration(r.queueTime)
	w.Duration(r.lastStamp)
	w.Int(r.maxQueue)
}

// Load restores a quiescent station saved by Save: no units held, no
// waiters, on either side.
func (r *Resource) Load(rd *snapshot.Reader) error {
	name := rd.String()
	capacity := rd.Int()
	inUse := rd.Int()
	waiters := rd.Int()
	acquired := rd.U64()
	busyTime := rd.Duration()
	queueTime := rd.Duration()
	lastStamp := rd.Duration()
	maxQueue := rd.Int()
	if err := rd.Err(); err != nil {
		return err
	}
	if name != r.name || capacity != r.capacity {
		return fmt.Errorf("sim: station mismatch (snapshot %q cap %d, live %q cap %d)", name, capacity, r.name, r.capacity)
	}
	if inUse != 0 || waiters != 0 {
		return fmt.Errorf("sim: station %q snapshot is not quiescent (%d in use, %d waiting)", name, inUse, waiters)
	}
	if r.inUse != 0 || r.waiters.len() != 0 {
		return fmt.Errorf("sim: loading into busy station %q", r.name)
	}
	r.acquired = acquired
	r.busyTime = busyTime
	r.queueTime = queueTime
	r.lastStamp = lastStamp
	r.maxQueue = maxQueue
	return nil
}

// State exposes the PRNG's internal state for checkpointing.
func (r *Rand) State() uint64 { return r.state }

// SetState restores a PRNG state captured with State.
func (r *Rand) SetState(s uint64) { r.state = s }
