// Package trace records storage operations as they execute — the
// observability layer of the simulated cloud. Experiments and examples can
// attach a Log to a cloud (cloud.SetTrace) and afterwards render per-op
// summaries and per-stage time attribution, or export the ops for aztrace
// (WriteJSONL), which is how the performance model's behaviour is debugged
// when a figure comes out wrong.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"azurebench/internal/metrics"
)

// Pipeline stage identifiers for Span.Stage. A recorded operation's spans
// partition its duration over these stages; StageOrder gives the canonical
// pipeline ordering for rendering.
const (
	StageRetryBackoff = "retry-backoff" // sleeping between attempts of a retried op
	StageNicIn        = "nic-in"        // request overhead + uplink NIC transfer + request travel
	StageThrottle     = "throttle"      // rejection path of an admission-control throttle
	StageQueueWait    = "queue-wait"    // waiting in the partition server's FIFO queue
	StageServer       = "server"        // partition-server/engine occupancy
	StageReplicate    = "replicate"     // synchronous replication tail of a mutation
	StagePipeline     = "pipeline"      // post-server storage-pipeline latency
	StageNicOut       = "nic-out"       // response travel + downlink NIC transfer
	StageFaultWait    = "fault-wait"    // waiting out an injected network timeout
	StageHandoff      = "handoff"       // rejected inside a partition-migration blackout
	StageWAN          = "wan"           // inter-region WAN transit of a geo-replication batch
)

// StageOrder returns the canonical pipeline ordering of span stages.
func StageOrder() []string {
	return []string{
		StageRetryBackoff, StageNicIn, StageThrottle, StageQueueWait,
		StageServer, StageReplicate, StagePipeline, StageNicOut,
		StageFaultWait, StageHandoff, StageWAN,
	}
}

// Span attributes part of an operation's duration to one pipeline stage.
type Span struct {
	Stage string
	Dur   time.Duration
}

// Op is one recorded storage operation.
type Op struct {
	Start    time.Duration // virtual (or wall-offset) start time
	Duration time.Duration
	Client   string
	Service  string // blob | queue | table | cache | mgmt
	Name     string // e.g. PutBlock
	Bytes    int64  // payload bytes moved (both directions)
	Err      string // storage error code, "" on success
	Fault    string // injected fault kind ("timeout", "reset", ...), "" if none
	Tag      string // free-form annotation (partition split/merge/migrate details)
	// TraceID/SpanID/ParentID make ops nodes of a causal tree (W3C
	// traceparent style: 16-byte trace id, 8-byte span id, hex). All
	// attempts of a retried op and any replication work it causes share a
	// TraceID; ParentID names the span that caused this op ("" for roots).
	// Empty IDs mean the recorder was not identity-aware — such ops are
	// standalone roots.
	TraceID  string
	SpanID   string
	ParentID string
	// Spans is the per-stage breakdown of Duration; the stage durations sum
	// to Duration exactly. Empty when the recorder did not attribute stages.
	Spans []Span
}

// ServiceOf maps a REST path's first segment to Op.Service ("mgmt" for
// control-plane routes like /stats) — shared by the SDK, which records the
// client's view of a request, and the emulator, which records the server's.
func ServiceOf(path string) string {
	p, _, _ := strings.Cut(strings.TrimPrefix(path, "/"), "/")
	switch p {
	case "blob", "queue", "table":
		return p
	}
	return "mgmt"
}

// SpanDur returns the duration attributed to stage ("" total when absent).
func (op Op) SpanDur(stage string) time.Duration {
	for _, sp := range op.Spans {
		if sp.Stage == stage {
			return sp.Dur
		}
	}
	return 0
}

// Log is a bounded in-memory operation log. It is safe for concurrent
// use. When the capacity is exceeded the oldest entries are dropped (and
// counted).
type Log struct {
	mu            sync.Mutex
	cap           int
	ops           []Op
	dropped       uint64
	evictedBefore time.Duration
	streams       map[string]int // IDs handed out per seed
}

// New creates a log bounded to capacity entries (<=0 means 1<<20).
func New(capacity int) *Log {
	if capacity <= 0 {
		capacity = 1 << 20
	}
	return &Log{cap: capacity}
}

// Record appends one operation.
func (l *Log) Record(op Op) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.ops) >= l.cap {
		// Drop the oldest half rather than shifting per insert.
		half := len(l.ops) / 2
		copy(l.ops, l.ops[half:])
		for i := len(l.ops) - half; i < len(l.ops); i++ {
			l.ops[i] = Op{} // release span slices of evicted entries
		}
		l.ops = l.ops[:len(l.ops)-half]
		l.dropped += uint64(half)
		// Everything before the earliest retained start is now outside the
		// window; renders annotate this boundary instead of silently
		// reporting partial aggregates.
		if len(l.ops) > 0 && l.ops[0].Start > l.evictedBefore {
			l.evictedBefore = l.ops[0].Start
		}
	}
	l.ops = append(l.ops, op)
}

// Dropped returns how many operations were evicted by the capacity bound.
func (l *Log) Dropped() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// EvictedBefore returns the truncation boundary left by capacity-bound
// eviction: operations starting before this instant have been dropped, so
// any aggregate covering earlier times reports a partial window. It is zero while nothing has been evicted.
func (l *Log) EvictedBefore() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.evictedBefore
}

// Ops returns a copy of the retained operations in record order.
func (l *Log) Ops() []Op {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Op, len(l.ops))
	copy(out, l.ops)
	return out
}

// IDs returns the ID generator of a recorder attached to the log. The
// first recorder to ask for a seed gets NewIDGen(seed); each later one
// gets a stream of its own, so recorders that share a name — every data
// point's cloud in one run — never mint the same ID into one log.
func (l *Log) IDs(seed string) *IDGen {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.streams == nil {
		l.streams = map[string]int{}
	}
	n := l.streams[seed]
	l.streams[seed] = n + 1
	if n > 0 {
		seed += fmt.Sprintf("#%d", n)
	}
	return NewIDGen(seed)
}

// Reset clears the log's operations; the streams IDs handed out go on,
// so the next experiment's IDs differ from this one's.
func (l *Log) Reset() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ops = l.ops[:0]
	l.dropped = 0
	l.evictedBefore = 0
}

// rowKey groups summary rows.
type rowKey struct {
	service string
	name    string
}

// SummaryRow is one aggregate line of Summary.
type SummaryRow struct {
	Service string
	Name    string
	Count   int
	Errors  int
	Faults  int // operations failed by an injected fault
	Bytes   int64
	Total   time.Duration
	Mean    time.Duration
	Max     time.Duration
}

// Rows aggregates the log per (service, operation), sorted by service
// then operation. When eviction has truncated the window the rows cover
// only operations at or after EvictedBefore.
func (l *Log) Rows() []SummaryRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	agg := map[rowKey]*SummaryRow{}
	for _, op := range l.ops {
		k := rowKey{op.Service, op.Name}
		r := agg[k]
		if r == nil {
			r = &SummaryRow{Service: op.Service, Name: op.Name}
			agg[k] = r
		}
		r.Count++
		if op.Err != "" {
			r.Errors++
		}
		if op.Fault != "" {
			r.Faults++
		}
		r.Bytes += op.Bytes
		r.Total += op.Duration
		if op.Duration > r.Max {
			r.Max = op.Duration
		}
	}
	var out []SummaryRow
	for _, r := range agg {
		r.Mean = r.Total / time.Duration(r.Count)
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// truncationNote renders the eviction annotation shared by Summary and
// StageSummary ("" when nothing was evicted).
func (l *Log) truncationNote() string {
	d := l.Dropped()
	if d == 0 {
		return ""
	}
	return fmt.Sprintf("(%d older operations dropped by the capacity bound; window truncated before %v)\n",
		d, l.EvictedBefore().Round(time.Millisecond))
}

// Summary renders the per-op aggregates as an aligned text table.
func (l *Log) Summary() string {
	rows := l.Rows()
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s %-16s %8s %6s %6s %12s %12s %12s\n",
		"service", "op", "count", "errs", "faults", "bytes", "mean", "max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %-16s %8d %6d %6d %12d %12s %12s\n",
			r.Service, r.Name, r.Count, r.Errors, r.Faults, r.Bytes,
			r.Mean.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	}
	b.WriteString(l.truncationNote())
	return b.String()
}

// StageRow aggregates span stages per (service, operation).
type StageRow struct {
	Service string
	Name    string
	Count   int                      // operations carrying spans
	Total   time.Duration            // summed duration of those operations
	Stages  map[string]time.Duration // per-stage totals; sums to Total
}

// StageRows aggregates per-stage time attribution per (service,
// operation), sorted by service then operation. Operations recorded
// without spans are excluded.
func (l *Log) StageRows() []StageRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	agg := map[rowKey]*StageRow{}
	for _, op := range l.ops {
		if len(op.Spans) == 0 {
			continue
		}
		k := rowKey{op.Service, op.Name}
		r := agg[k]
		if r == nil {
			r = &StageRow{Service: op.Service, Name: op.Name, Stages: map[string]time.Duration{}}
			agg[k] = r
		}
		r.Count++
		r.Total += op.Duration
		for _, sp := range op.Spans {
			r.Stages[sp.Stage] += sp.Dur
		}
	}
	var out []StageRow
	for _, r := range agg {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Service != out[j].Service {
			return out[i].Service < out[j].Service
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// StageSummary renders the per-stage time attribution as an aligned table:
// one row per (service, op), one column per pipeline stage that appears,
// cells as percentage of the row's total time. This is the report that
// answers "where does PutBlock time go at 64 workers".
func (l *Log) StageSummary() string {
	rows := l.StageRows()
	if len(rows) == 0 {
		return "(no operations with stage spans recorded)\n"
	}
	present := map[string]bool{}
	for _, r := range rows {
		for st := range r.Stages {
			present[st] = true
		}
	}
	var stages []string
	for _, st := range StageOrder() {
		if present[st] {
			stages = append(stages, st)
			delete(present, st)
		}
	}
	// Stages outside the canonical order render last, alphabetically.
	var extra []string
	for st := range present {
		extra = append(extra, st)
	}
	sort.Strings(extra)
	stages = append(stages, extra...)

	var b strings.Builder
	b.WriteString("stage attribution (% of summed op time)\n")
	header := []string{"service", "op", "count", "total"}
	header = append(header, stages...)
	table := [][]string{header}
	for _, r := range rows {
		row := []string{r.Service, r.Name, fmt.Sprintf("%d", r.Count),
			r.Total.Round(time.Millisecond).String()}
		for _, st := range stages {
			d := r.Stages[st]
			if d == 0 {
				row = append(row, "-")
			} else {
				row = append(row, fmt.Sprintf("%.1f%%", 100*float64(d)/float64(r.Total)))
			}
		}
		table = append(table, row)
	}
	metrics.WriteAligned(&b, table)
	b.WriteString(l.truncationNote())
	return b.String()
}
