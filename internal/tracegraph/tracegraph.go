// Package tracegraph reconstructs causal trees from recorded operations
// (an azurebench -tracefile read back by trace.ReadJSONL, or a live
// trace.Log) and analyses them: per-request critical paths through
// pipeline stages, tail-latency attribution against median stage
// profiles, and stage-wise diffs between two traces. It is the analysis
// half of the end-to-end tracing story — the recording half and the file
// format live in internal/trace, the propagation in internal/cloud,
// internal/sdk, and internal/rest.
//
// The package is deliberately pure: it reads exported data and computes;
// it never consults the wall clock or any random source, so analyses are
// reproducible byte-for-byte from the same input.
package tracegraph

import (
	"sort"
	"time"

	"azurebench/internal/trace"
)

// Trace is a loaded trace file (trace.ReadJSONL) or, for in-process
// consumers holding a live trace.Log, just its Ops; the analyses are its
// methods. Each op's Spans name a stage at most once — the recorders
// merge repeats and the file format cannot express them.
type Trace trace.File

// end returns the op's end time.
func end(op trace.Op) time.Duration { return op.Start + op.Duration }

// spanSum returns the total duration attributed to stages.
func spanSum(op trace.Op) time.Duration {
	var sum time.Duration
	for _, sp := range op.Spans {
		sum += sp.Dur
	}
	return sum
}

// Node is one op placed in a causal tree.
type Node struct {
	Op       trace.Op
	Children []*Node // sorted by start time, then span id
	// Orphaned marks a node whose ParentID did not resolve (the parent
	// was evicted or the timeline is partial); it is grouped with the
	// roots so no data disappears, but flagged for the caller.
	Orphaned bool
}

// Forest is the causal-tree view of a trace.
type Forest struct {
	Roots []*Node // root and orphaned nodes, sorted by start time
	// Orphans counts the non-root nodes whose parent is missing.
	Orphans int
	// Standalone counts ops recorded without span identity (pre-tracing
	// recorders); they appear as single-node roots.
	Standalone int
}

// Forest reconstructs causal trees: every op with a ParentID attaches
// under the op owning that span ID; ops without identity stand alone.
func (t *Trace) Forest() *Forest {
	f := &Forest{}
	bySpan := map[string]*Node{}
	nodes := make([]*Node, len(t.Ops))
	for i, op := range t.Ops {
		n := &Node{Op: op}
		nodes[i] = n
		if op.SpanID != "" {
			bySpan[op.SpanID] = n
		}
	}
	for _, n := range nodes {
		switch {
		case n.Op.SpanID == "":
			f.Standalone++
			f.Roots = append(f.Roots, n)
		case n.Op.ParentID == "":
			f.Roots = append(f.Roots, n)
		default:
			parent := bySpan[n.Op.ParentID]
			if parent == nil || parent == n {
				n.Orphaned = true
				f.Orphans++
				f.Roots = append(f.Roots, n)
				continue
			}
			parent.Children = append(parent.Children, n)
		}
	}
	order := func(a, b *Node) bool {
		if a.Op.Start != b.Op.Start {
			return a.Op.Start < b.Op.Start
		}
		return a.Op.SpanID < b.Op.SpanID
	}
	for _, n := range nodes {
		sort.Slice(n.Children, func(i, j int) bool { return order(n.Children[i], n.Children[j]) })
	}
	sort.Slice(f.Roots, func(i, j int) bool { return order(f.Roots[i], f.Roots[j]) })
	return f
}

// PathStep is one op on a critical path with its stage breakdown.
type PathStep struct {
	Op     trace.Op
	Stages map[string]time.Duration
}

// CriticalPath returns the causal continuation chain from root: the root
// itself, then at each node the child that continues the request in time
// (starts at or after the node ends — a retry attempt or failed-over
// reissue), preferring the latest-ending continuation. Children contained
// within the node's window (server-side detail of a client op) or running
// asynchronously after it (geo-replication fan-out) describe parallel
// work and are not part of the request's latency chain.
//
// Each step's Stages are the op's own span durations, so a step's stage
// sum equals that op's duration whenever the recorder attributed stages —
// the invariant Verify checks.
func CriticalPath(root *Node) []PathStep {
	var path []PathStep
	for n := root; n != nil; {
		step := PathStep{Op: n.Op, Stages: map[string]time.Duration{}}
		for _, sp := range n.Op.Spans {
			step.Stages[sp.Stage] += sp.Dur
		}
		path = append(path, step)
		var next *Node
		for _, c := range n.Children {
			if c.Op.Client != n.Op.Client {
				continue // a different actor: server detail or async fan-out
			}
			// A continuation follows its cause; retried attempts embed the
			// backoff slept after the failure in their own window, so the
			// child may start slightly before the parent's recorded end
			// only when overlapped — require non-overlap.
			if c.Op.Start >= end(n.Op) {
				if next == nil || end(c.Op) > end(next.Op) {
					next = c
				}
			}
		}
		n = next
	}
	return path
}

// VerifyReport summarises the structural invariants of a trace.
type VerifyReport struct {
	Ops        int
	Identified int // ops carrying span identity
	Orphans    int // identified non-roots whose parent is missing
	Standalone int
	// DuplicateSpans counts span IDs more than one op carries: a child of
	// one of them may hang under the wrong parent.
	DuplicateSpans int
	// EarlyChildren counts ops that start before their parent does; no
	// retry, server-side span or replication fan-out can.
	EarlyChildren int
	// SpanMismatches counts ops whose per-stage durations do not sum to
	// the op duration (the recorder contract is exact partition).
	SpanMismatches int
}

// Complete reports whether the causal trees are sound: every non-root
// span resolved its one parent, and no child starts before it.
func (v VerifyReport) Complete() bool {
	return v.Orphans == 0 && v.DuplicateSpans == 0 && v.EarlyChildren == 0
}

// Verify checks the causal-tree invariants: parent resolution, unique span
// IDs, children that start no earlier than their parents, and exact stage
// partition of each op's duration.
func (t *Trace) Verify() VerifyReport {
	f := t.Forest()
	rep := VerifyReport{Ops: len(t.Ops), Orphans: f.Orphans, Standalone: f.Standalone}
	seen := map[string]int{}
	for _, op := range t.Ops {
		if op.SpanID != "" {
			rep.Identified++
			if seen[op.SpanID]++; seen[op.SpanID] == 2 {
				rep.DuplicateSpans++
			}
		}
		if len(op.Spans) > 0 && spanSum(op) != op.Duration {
			rep.SpanMismatches++
		}
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			if c.Op.Start < n.Op.Start {
				rep.EarlyChildren++
			}
			walk(c)
		}
	}
	for _, r := range f.Roots {
		walk(r)
	}
	return rep
}
