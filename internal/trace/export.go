package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// This file is the one declaration of the JSONL trace file behind
// azurebench's -tracefile flag: a run is a sequence of sections, each a
// marker line naming the report, an eviction metadata line if the log
// overflowed, and one line per retained operation. WriteSection and
// WriteJSONL produce it; ReadJSONL is the only parser.

// jsonOp is the wire form of an Op. Durations are integer nanoseconds so
// exported traces round-trip exactly; spans map stage name to attributed
// nanoseconds (keys marshal sorted, so output is deterministic).
type jsonOp struct {
	StartNs int64            `json:"start_ns"`
	DurNs   int64            `json:"dur_ns"`
	Client  string           `json:"client,omitempty"`
	Service string           `json:"service"`
	Op      string           `json:"op"`
	Bytes   int64            `json:"bytes,omitempty"`
	Err     string           `json:"err,omitempty"`
	Fault   string           `json:"fault,omitempty"`
	Tag     string           `json:"tag,omitempty"`
	Trace   string           `json:"trace_id,omitempty"`
	Span    string           `json:"span_id,omitempty"`
	Parent  string           `json:"parent_id,omitempty"`
	Spans   map[string]int64 `json:"spans,omitempty"`
}

// jsonEviction is the metadata line that leads a section whose log
// dropped operations.
type jsonEviction struct {
	Dropped         uint64 `json:"dropped"`
	EvictedBeforeNs int64  `json:"evicted_before_ns"`
}

// jsonSection is the marker line that opens one report's section.
type jsonSection struct {
	Experiment string `json:"experiment"`
}

// jsonLine is what a reader decodes every line into: the union of the
// three shapes above.
type jsonLine struct {
	jsonOp
	jsonEviction
	jsonSection
}

// WriteSection writes the marker line naming the report (experiment id or
// scenario name) whose operations follow, so one file holds a whole run.
func WriteSection(w io.Writer, name string) error {
	return json.NewEncoder(w).Encode(jsonSection{name})
}

// WriteJSONL writes the retained operations to w, one JSON object per
// line, in record order. When eviction has truncated the log a leading
// metadata line records the boundary and drop count.
func (l *Log) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw) // Encode appends the newline for us
	if d := l.Dropped(); d > 0 {
		if err := enc.Encode(jsonEviction{d, int64(l.EvictedBefore())}); err != nil {
			return err
		}
	}
	for _, op := range l.Ops() {
		jo := jsonOp{
			StartNs: int64(op.Start),
			DurNs:   int64(op.Duration),
			Client:  op.Client,
			Service: op.Service,
			Op:      op.Name,
			Bytes:   op.Bytes,
			Err:     op.Err,
			Fault:   op.Fault,
			Tag:     op.Tag,
			Trace:   op.TraceID,
			Span:    op.SpanID,
			Parent:  op.ParentID,
		}
		if len(op.Spans) > 0 {
			jo.Spans = make(map[string]int64, len(op.Spans))
			for _, sp := range op.Spans {
				jo.Spans[sp.Stage] += int64(sp.Dur)
			}
		}
		if err := enc.Encode(jo); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// File is a parsed JSONL trace file.
type File struct {
	// Ops are the operations of every section, in file order; each op's
	// Spans are sorted by stage name.
	Ops []Op
	// Dropped and EvictedBefore fold the eviction metadata lines: total
	// operations dropped, and the latest truncation boundary.
	Dropped       uint64
	EvictedBefore time.Duration
	// Sections are the names on the section markers, in file order.
	Sections []string
}

// ReadJSONL parses a trace file. A line with neither "op" nor "service"
// is metadata, not an operation (no recorder produces such an op), so
// blank lines and empty objects are tolerated.
func ReadJSONL(r io.Reader) (File, error) {
	var f File
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<24) // a line is a few hundred bytes, but a tag is free-form
	for line := 1; sc.Scan(); line++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var jl jsonLine
		if err := json.Unmarshal(raw, &jl); err != nil {
			return File{}, fmt.Errorf("trace: line %d: %w", line, err)
		}
		switch {
		case jl.Experiment != "":
			f.Sections = append(f.Sections, jl.Experiment)
		case jl.Op == "" && jl.Service == "":
			f.Dropped += jl.Dropped
			if d := time.Duration(jl.EvictedBeforeNs); d > f.EvictedBefore {
				f.EvictedBefore = d
			}
		default:
			op := Op{
				Start:    time.Duration(jl.StartNs),
				Duration: time.Duration(jl.DurNs),
				Client:   jl.Client,
				Service:  jl.Service,
				Name:     jl.Op,
				Bytes:    jl.Bytes,
				Err:      jl.Err,
				Fault:    jl.Fault,
				Tag:      jl.Tag,
				TraceID:  jl.Trace,
				SpanID:   jl.Span,
				ParentID: jl.Parent,
			}
			if len(jl.Spans) > 0 {
				op.Spans = make([]Span, 0, len(jl.Spans))
				for st, ns := range jl.Spans {
					op.Spans = append(op.Spans, Span{Stage: st, Dur: time.Duration(ns)})
				}
				sort.Slice(op.Spans, func(i, j int) bool { return op.Spans[i].Stage < op.Spans[j].Stage })
			}
			f.Ops = append(f.Ops, op)
		}
	}
	if err := sc.Err(); err != nil {
		return File{}, fmt.Errorf("trace: %w", err)
	}
	return f, nil
}
