// Package telemetry is the zero-dependency instrumentation layer of the
// pipeline: hierarchical phase spans (wall clock + heap allocations),
// process-wide atomic counters on the hot paths, and pluggable sinks
// (JSON-lines export, in-memory aggregation).
//
// The design goal is that instrumentation costs nothing when nobody is
// looking. Counters are plain atomic adds, batched by the hot loops (one add
// per fault-group pass, not per gate). Spans are created through a
// *Recorder; every span method is safe on a nil receiver and a nil recorder
// produces nil spans, so instrumented code needs no conditionals and a
// disabled pipeline allocates nothing.
package telemetry

import "sync/atomic"

// CounterID identifies one of the fixed process-wide counters.
type CounterID int

// The hot-path counters. They are process-wide (not per-recorder) so that
// the innermost loops pay a single atomic add and no pointer chase.
const (
	// CtrGateEvals counts gate evaluations in the bit-parallel fault
	// simulator (one per gate per time unit per fault-group pass).
	CtrGateEvals CounterID = iota
	// CtrVectors counts input vectors simulated (per fault-group pass).
	CtrVectors
	// CtrGroupPasses counts fault-group passes of the simulator.
	CtrGroupPasses
	// CtrFaultsDropped counts faults dropped (detected and removed) per
	// simulation window.
	CtrFaultsDropped
	// CtrCandidates counts candidate sequences fault-simulated by the
	// weight-selection procedure.
	CtrCandidates
	// CtrBacktracks counts PODEM decision backtracks.
	CtrBacktracks
	// CtrGatesSkipped counted the gate evaluations the deleted event-driven
	// kernel avoided relative to a dense pass. Both remaining kernels count
	// every dense-equivalent evaluation in CtrGateEvals, so it always reads
	// 0; it stays defined because gate_evals + gates_skipped is the
	// kernel-invariant evaluation count that pins and reports already use.
	CtrGatesSkipped
	// CtrGroupsCancelled counts fault groups skipped because the run's
	// context was cancelled (the observable footprint of job cancellation:
	// workers stopped claiming these groups).
	CtrGroupsCancelled
	// CtrSweepFallbacks counted the time units the deleted event-driven
	// kernel simulated as full sweeps instead of draining its worklist. No
	// kernel moves it any more, so it always reads 0; it stays defined for
	// the readers of the fsim.sweep_fallback_ratio metric.
	CtrSweepFallbacks
	// CtrSlabPasses counts multi-group slab passes of the slab kernel (one
	// per batch of up to W fault groups walked in a single pass, W being
	// the lane width fsim picks).
	CtrSlabPasses
	// CtrSlabLanesIdle counts idle lane-cycles of the slab kernel: lanes
	// walked in a time unit while they held no machine of an unfinished
	// fault group (every group they carried had stopped, fully detected or
	// at a repeat exit, and no repack had dropped the lane yet). Without a
	// repack it is the time units each lane was walked after its own group
	// stopped.
	CtrSlabLanesIdle
	// CtrRepeatExits counts fault-group passes ended by the repeat exit:
	// the fault-free machine and every live faulty machine re-entered an
	// earlier state under input that repeats from there on, so no further
	// detection was possible.
	CtrRepeatExits
	// CtrSpeculativeVectors counts the vectors of discarded speculative
	// fault simulations: candidates fsim.Speculate evaluated ahead of an
	// earlier candidate that was then accepted. It is the waste of
	// speculation; every other fsim counter counts committed work only.
	CtrSpeculativeVectors
	// CtrSlabLaneCycles counts the lane-cycles the slab kernel walked: one
	// per lane per time unit (a bridge batch's two walks of one time unit
	// count once). Against fsim.vectors, the dense kernel's lane-cycles, it
	// shows what batching and live-fault packing saved: a repack moves the
	// live faults of a batch into fewer lanes, so a packed batch walks
	// fewer lane-cycles than its groups' dense passes.
	CtrSlabLaneCycles
	// CtrProvenRedundant counts the faults podem.Prove proved redundant: in
	// the pipeline, the PODEM targets whose sequential search was skipped
	// because no sequence can detect them. The proofs' own backtracks count
	// in CtrBacktracks.
	CtrProvenRedundant

	// NumCounters is the number of defined counters.
	NumCounters
)

var counterNames = [NumCounters]string{
	CtrGateEvals:          "fsim.gate_evals",
	CtrVectors:            "fsim.vectors",
	CtrGroupPasses:        "fsim.group_passes",
	CtrFaultsDropped:      "fsim.faults_dropped",
	CtrCandidates:         "core.candidates_scored",
	CtrBacktracks:         "podem.backtracks",
	CtrGatesSkipped:       "fsim.gates_skipped",
	CtrGroupsCancelled:    "fsim.groups_cancelled",
	CtrSweepFallbacks:     "fsim.sweep_fallbacks",
	CtrSlabPasses:         "fsim.slab_passes",
	CtrSlabLanesIdle:      "fsim.slab_lanes_idle",
	CtrRepeatExits:        "fsim.repeat_exits",
	CtrSpeculativeVectors: "fsim.speculative_vectors",
	CtrSlabLaneCycles:     "fsim.slab_lane_cycles",
	CtrProvenRedundant:    "podem.proven_redundant",
}

// Name returns the exported name of a counter.
func (id CounterID) Name() string { return counterNames[id] }

var counters [NumCounters]atomic.Int64

// Add increments a counter. Hot paths batch their increments (e.g. once per
// fault-group pass), so this is a single atomic add on their scale.
func Add(id CounterID, n int64) { counters[id].Add(n) }

// Snapshot is a point-in-time copy of every counter.
type Snapshot [NumCounters]int64

// Counters returns the current value of every counter.
func Counters() Snapshot {
	var s Snapshot
	for i := range s {
		s[i] = counters[i].Load()
	}
	return s
}

// Sub returns the per-counter difference s - prev.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	var d Snapshot
	for i := range s {
		d[i] = s[i] - prev[i]
	}
	return d
}

// Get returns the value of one counter in the snapshot.
func (s Snapshot) Get(id CounterID) int64 { return s[id] }

// Map returns the nonzero counters keyed by name (nil if all are zero).
func (s Snapshot) Map() map[string]int64 {
	var m map[string]int64
	for i, v := range s {
		if v == 0 {
			continue
		}
		if m == nil {
			m = make(map[string]int64, len(s))
		}
		m[counterNames[i]] = v
	}
	return m
}
