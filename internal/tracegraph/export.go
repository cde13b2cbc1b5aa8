package tracegraph

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"azurebench/internal/trace"
)

// chromeEvent is one event of the Chrome trace-event format ("Trace Event
// Format", the JSON consumed by chrome://tracing and Perfetto).
type chromeEvent struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TsUs  float64           `json:"ts"`
	DurUs float64           `json:"dur"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args,omitempty"`
}

// chromeFile is the object form of the format (allows metadata).
type chromeFile struct {
	TraceEvents []chromeEvent     `json:"traceEvents"`
	DisplayUnit string            `json:"displayTimeUnit"`
	Metadata    map[string]string `json:"metadata,omitempty"`
}

// stageOffsets lays an op's stages out sequentially in canonical pipeline
// order, returning (stage, offset, dur) triples covering the op window.
func stageOffsets(op trace.Op) []struct {
	Stage string
	Off   time.Duration
	Dur   time.Duration
} {
	var out []struct {
		Stage string
		Off   time.Duration
		Dur   time.Duration
	}
	var off time.Duration
	emit := func(st string, d time.Duration) {
		if d <= 0 {
			return
		}
		out = append(out, struct {
			Stage string
			Off   time.Duration
			Dur   time.Duration
		}{st, off, d})
		off += d
	}
	canonical := map[string]bool{}
	for _, st := range trace.StageOrder() {
		emit(st, op.SpanDur(st))
		canonical[st] = true
	}
	var extra []string
	for _, sp := range op.Spans {
		if !canonical[sp.Stage] {
			extra = append(extra, sp.Stage)
		}
	}
	sort.Strings(extra)
	for _, st := range extra {
		emit(st, op.SpanDur(st))
	}
	return out
}

// WriteChrome renders the trace in the Chrome trace-event format: one "X"
// (complete) event per op on a (service → pid, client → tid) grid, plus
// nested stage events laid out sequentially inside each op. Load the file
// in chrome://tracing or ui.perfetto.dev.
func WriteChrome(w io.Writer, t *Trace) error {
	// Deterministic pid/tid assignment: sorted name → small int.
	pids := map[string]int{}
	tids := map[string]int{}
	var services, clients []string
	for _, op := range t.Ops {
		if _, ok := pids[op.Service]; !ok {
			pids[op.Service] = 0
			services = append(services, op.Service)
		}
		if _, ok := tids[op.Client]; !ok {
			tids[op.Client] = 0
			clients = append(clients, op.Client)
		}
	}
	sort.Strings(services)
	sort.Strings(clients)
	for i, s := range services {
		pids[s] = i + 1
	}
	for i, c := range clients {
		tids[c] = i + 1
	}

	f := chromeFile{DisplayUnit: "ms", TraceEvents: []chromeEvent{}}
	// Name the rows so the viewer shows services/clients, not bare ints.
	for _, s := range services {
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: "process_name", Phase: "M", PID: pids[s],
			Args: map[string]string{"name": s},
		})
	}
	for _, s := range services {
		for _, c := range clients {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: "thread_name", Phase: "M", PID: pids[s], TID: tids[c],
				Args: map[string]string{"name": c},
			})
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, op := range t.Ops {
		args := map[string]string{}
		if op.TraceID != "" {
			args["trace_id"] = op.TraceID
		}
		if op.SpanID != "" {
			args["span_id"] = op.SpanID
		}
		if op.ParentID != "" {
			args["parent_id"] = op.ParentID
		}
		if op.Err != "" {
			args["err"] = op.Err
		}
		if op.Fault != "" {
			args["fault"] = op.Fault
		}
		if op.Tag != "" {
			args["tag"] = op.Tag
		}
		if op.Bytes != 0 {
			args["bytes"] = fmt.Sprintf("%d", op.Bytes)
		}
		f.TraceEvents = append(f.TraceEvents, chromeEvent{
			Name: op.Name, Cat: op.Service, Phase: "X",
			TsUs: us(op.Start), DurUs: us(op.Duration),
			PID: pids[op.Service], TID: tids[op.Client], Args: args,
		})
		for _, so := range stageOffsets(op) {
			f.TraceEvents = append(f.TraceEvents, chromeEvent{
				Name: so.Stage, Cat: "stage", Phase: "X",
				TsUs: us(op.Start + so.Off), DurUs: us(so.Dur),
				PID: pids[op.Service], TID: tids[op.Client],
			})
		}
	}
	if t.Dropped > 0 {
		f.Metadata = map[string]string{
			"dropped":        fmt.Sprintf("%d", t.Dropped),
			"evicted_before": t.EvictedBefore.String(),
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}

// WriteFlame renders the trace as collapsed stacks for flamegraph.pl (or
// any compatible renderer): one "client;service;op;stage count" line per
// distinct stack, count in microseconds of attributed time, sorted. Ops
// without stage spans contribute an "(op)" leaf so no time disappears.
func WriteFlame(w io.Writer, t *Trace) error {
	agg := map[string]time.Duration{}
	for _, op := range t.Ops {
		client := op.Client
		if client == "" {
			client = "(unknown)"
		}
		base := client + ";" + op.Service + ";" + op.Name
		if len(op.Spans) == 0 {
			agg[base+";(op)"] += op.Duration
			continue
		}
		for _, sp := range op.Spans {
			agg[base+";"+sp.Stage] += sp.Dur
		}
	}
	stacks := make([]string, 0, len(agg))
	for s := range agg {
		stacks = append(stacks, s)
	}
	sort.Strings(stacks)
	for _, s := range stacks {
		if _, err := fmt.Fprintf(w, "%s %d\n", s, agg[s]/time.Microsecond); err != nil {
			return err
		}
	}
	return nil
}
