// Package obsv is the domain-observability layer on top of the generic
// instrumentation in internal/telemetry: it gives the fault simulator an
// optional detection-provenance trace (who detected which fault, when, at
// which primary output, under which weight assignment), folds the stream
// into coverage-vs-vector curves, and renders whole-run reports.
//
// The package sits below fsim in the import graph (it knows nothing about
// circuits or simulators), so the fault simulator can feed a *Trace
// directly. The contract mirrors the simulator's determinism guarantee: for
// a fixed circuit, sequence and fault list the canonical stream
// (CanonicalBytes) is byte-identical for every Workers count and lane
// width — events are buffered per fault group and merged in group order,
// exactly like the simulator's result merge. Worker and kernel are
// carried as annotations only and excluded from the canonical form.
package obsv

import (
	"fmt"
	"strings"
)

// Event is one first detection of a fault, as it appears in the merged
// stream of a traced fault-simulation run.
type Event struct {
	// Fault is the index of the detected fault in the run's fault list.
	Fault int `json:"fault"`
	// Time is the time unit of the first detection. A run continued from
	// saved states counts on from where they were saved, so split
	// continuation runs report absolute times.
	Time int `json:"t"`
	// PO is the index of the detecting primary output (the lowest-index
	// output showing a binary difference at Time).
	PO int `json:"po"`
	// Group is the fault group the fault was simulated in.
	Group int `json:"group"`
	// Assignment is the index of the weight assignment whose window was
	// being simulated, or -1 when the run was not driven by one.
	Assignment int `json:"assignment"`
	// Worker is the index of the worker goroutine that simulated the group
	// (annotation only: not part of the canonical stream).
	Worker int `json:"worker"`
	// Kernel names the gate-evaluation kernel that produced the event
	// (annotation only: not part of the canonical stream).
	Kernel string `json:"kernel,omitempty"`
}

// Trace collects the detection-provenance stream of one fault-simulation
// run. Create it with NewTrace, set Assignment if the run simulates a weight
// assignment's window, and pass it to the simulator (fsim.Options.Trace).
// A nil *Trace is the "tracing off" trace: Begin and Group are safe on it
// and the simulator pays nothing beyond one nil check per run.
//
// A Trace must not be shared by concurrent simulator runs; within one run
// the per-group buffers are written only by the worker that owns the group,
// so parallel runs need no locking.
type Trace struct {
	// Assignment is stamped into every event of this run (-1 = the run is
	// not a weight-assignment window).
	Assignment int

	kernel string
	groups []groupTrace
}

// groupTrace is the per-fault-group buffer: only the worker simulating the
// group touches it, which is what keeps parallel traced runs race-free.
type groupTrace struct {
	worker  int
	vectors int
	events  []rawEvent
	// activity[i] is the number of circuit nodes whose fault-free value
	// changed between simulated vector i and i+1 (recorded for group 0
	// only: slot 0 is the same machine in every group).
	activity []int32
}

type rawEvent struct {
	fault, time, po int32
}

// NewTrace returns an empty trace with no assignment attribution.
func NewTrace() *Trace { return &Trace{Assignment: -1} }

// Begin resets the trace for a run over numGroups fault groups produced by
// the named kernel. The simulator calls it once per run, before any group is
// simulated; buffers are reused across runs. Safe on a nil trace.
func (t *Trace) Begin(numGroups int, kernel string) {
	if t == nil {
		return
	}
	t.kernel = kernel
	if cap(t.groups) < numGroups {
		t.groups = make([]groupTrace, numGroups)
	} else {
		t.groups = t.groups[:numGroups]
		for g := range t.groups {
			t.groups[g] = groupTrace{
				events:   t.groups[g].events[:0],
				activity: t.groups[g].activity[:0],
			}
		}
	}
}

// Group returns the sink for one fault group (nil on a nil trace, so the
// kernels hoist a single nil check out of their loops).
func (t *Trace) Group(g int) *GroupTrace {
	if t == nil {
		return nil
	}
	return (*GroupTrace)(&t.groups[g])
}

// GroupTrace is the simulator-facing sink of one fault group. All methods
// are safe on a nil receiver.
type GroupTrace groupTrace

// SetWorker records which worker goroutine simulates the group.
func (g *GroupTrace) SetWorker(w int) {
	if g != nil {
		g.worker = w
	}
}

// Detect records the first detection of a fault: fault-list index, absolute
// time unit and detecting primary-output index.
func (g *GroupTrace) Detect(fault, time, po int) {
	if g != nil {
		g.events = append(g.events, rawEvent{int32(fault), int32(time), int32(po)})
	}
}

// Activity appends one per-cycle activity sample: the number of nodes whose
// fault-free value changed going into the cycle. The simulator records it
// for group 0 only (the fault-free machine is the same in every group).
func (g *GroupTrace) Activity(changed int) {
	if g != nil {
		g.activity = append(g.activity, int32(changed))
	}
}

// SetVectors records how many time units the group's pass simulated (groups
// whose faults are all detected, or whose machines repeat an earlier state
// under repeating input, exit before the sequence ends).
func (g *GroupTrace) SetVectors(n int) {
	if g != nil {
		g.vectors = n
	}
}

// Kernel returns the kernel name recorded by Begin.
func (t *Trace) Kernel() string {
	if t == nil {
		return ""
	}
	return t.kernel
}

// NumGroups returns the number of fault groups of the traced run.
func (t *Trace) NumGroups() int {
	if t == nil {
		return 0
	}
	return len(t.groups)
}

// Events returns the merged detection stream in group order (within a group:
// ascending time, then ascending primary-output index, then ascending fault
// index — the order the detection scans run in), stamped with the trace's
// assignment and each group's worker and the run's kernel.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for g := range t.groups {
		gt := &t.groups[g]
		for _, e := range gt.events {
			out = append(out, Event{
				Fault:      int(e.fault),
				Time:       int(e.time),
				PO:         int(e.po),
				Group:      g,
				Assignment: t.Assignment,
				Worker:     gt.worker,
				Kernel:     t.kernel,
			})
		}
	}
	return out
}

// NumDetections returns the total number of detection events.
func (t *Trace) NumDetections() int {
	if t == nil {
		return 0
	}
	n := 0
	for g := range t.groups {
		n += len(t.groups[g].events)
	}
	return n
}

// Activity returns group 0's per-cycle activity curve: element i is the
// number of nodes whose fault-free value changed between simulated vector i
// and vector i+1 of the run (the word-level switching profile the
// power-constrained scheduling direction needs).
func (t *Trace) Activity() []int {
	if t == nil || len(t.groups) == 0 {
		return nil
	}
	src := t.groups[0].activity
	out := make([]int, len(src))
	for i, v := range src {
		out[i] = int(v)
	}
	return out
}

// GroupVectors returns, per fault group, the number of time units its pass
// simulated. Groups that early-exit (every fault detected, or a repeat
// exit) report fewer vectors; the maximum entries are the run's slowest
// groups.
func (t *Trace) GroupVectors() []int {
	if t == nil {
		return nil
	}
	out := make([]int, len(t.groups))
	for g := range t.groups {
		out[g] = t.groups[g].vectors
	}
	return out
}

// CanonicalBytes renders the scheduling-independent core of the trace: the
// group-major event stream (fault, time, primary output), each group's
// vector count, the assignment stamp and group 0's activity curve. Worker
// and kernel annotations are excluded. Two traced runs over the same
// circuit, sequence and fault list must produce byte-identical canonical
// forms for every Workers count and lane width; internal/difftest enforces
// this.
func (t *Trace) CanonicalBytes() []byte {
	if t == nil {
		return nil
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace assignment=%d groups=%d\n", t.Assignment, len(t.groups))
	for g := range t.groups {
		gt := &t.groups[g]
		fmt.Fprintf(&sb, "g %d v %d\n", g, gt.vectors)
		for _, e := range gt.events {
			fmt.Fprintf(&sb, "d %d %d %d\n", e.fault, e.time, e.po)
		}
	}
	for _, a := range t.Activity() {
		fmt.Fprintf(&sb, "a %d\n", a)
	}
	return []byte(sb.String())
}
