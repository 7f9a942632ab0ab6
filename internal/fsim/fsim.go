// Package fsim implements a bit-parallel three-valued sequential fault
// simulator. Faults are simulated in groups: slot 0 of every 64-bit dual-rail
// word carries the fault-free machine and slots 1..63 carry up to 63 faulty
// machines, so one pass over the gate list advances 64 machines at once.
//
// A fault is detected at time unit u if some primary output has a binary
// fault-free value and the opposite binary value in the faulty machine
// (logic.W.DiffMask). Optionally the simulator records, for every fault, the
// set of *internal* nodes at which the faulty machine ever differs binarily
// from the fault-free machine; that is the observability information used by
// the observation-point insertion experiment (Section 5 of the paper).
//
// A group pass stops before the end of the sequence at one of two early
// exits: once every fault of the group is detected, or at a repeat exit,
// when the fault-free machine and every live faulty machine are back in an
// earlier state and the input from there on repeats the input that followed
// that state (the weighted sequences of the paper are periodic, so this is
// the common case). Neither exit changes any outcome; options that need the
// whole sequence (SaveStates, ObserveLines, OutputHook) disable both.
//
// Fault groups are fully independent (each pass carries its own fault-free
// machine in slot 0), so Options.Workers > 1 shards them over a worker pool
// with one scratch simulator per worker and merges the per-group results
// deterministically: the outcome is bit-identical to a sequential run. Above
// the group level, Speculate evaluates a caller's accept-or-discard
// candidates several at once and commits them in order.
package fsim

import (
	"context"
	"fmt"
	"math/bits"
	"os"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// GroupSize is the number of faulty machines per simulation pass.
const GroupSize = 63

// Options control a fault-simulation run.
type Options struct {
	// Init is the initial value of every flip-flop (logic.Zero for circuits
	// with a global reset, logic.X for an unknown power-up state).
	Init logic.V
	// ObserveLines records, per fault, the set of nodes at which the faulty
	// machine differs binarily from the fault-free machine at some time unit
	// (disabling the early exits so every group sees the full sequence).
	ObserveLines bool
	// AbortAfterFirstGroupIfNone stops after the first fault group if that
	// group produced no detection. Combined with an ordering that puts a
	// target fault and a random sample first, this is the paper's Section 4.2
	// simulation-effort reduction.
	AbortAfterFirstGroupIfNone bool
	// OutputHook, if non-nil, observes each fault group's responses: it is
	// invoked once per simulated time unit per group, in time order, with
	// the group's fault range [lo,hi) and the dual-rail primary-output words
	// (slot 0 = fault-free machine, slot k = machine of faults[lo+k-1]).
	// Response compactors (package misr) plug in here. The calls for one
	// group run on the goroutine that simulates it; calls for different
	// groups may run concurrently, so a hook must only touch state of its
	// own group. po is valid only during the call. Setting a hook disables
	// the early exits (all faults detected, repeat) so every group sees the
	// full sequence.
	OutputHook func(lo, hi, u int, po []logic.W)
	// InitialStates, if non-nil, is the state every machine starts from:
	// the Outcome.FinalStates of an earlier run with SaveStates, or its
	// States.Select for a subset of that run's fault list. It overrides Init
	// and lets a caller continue a simulation where an earlier sequence left
	// off, paying only for the new vectors. The states know the time unit
	// their run ended at, and the continued run starts there: its DetTime
	// and trace times are absolute, directly comparable with the detection
	// times u_det(f) of the unsplit sequence. Continuation is exact for every
	// fault model and kernel: the states carry each transition fault's launch
	// history along with the flip-flops, so the split run detects exactly
	// what the unsplit run detects, at the same times. Run panics if the
	// states describe a different number of faults or flip-flops than the
	// run: a silent mismatch would corrupt the continuation run.
	InitialStates *States
	// SaveStates records every machine's final state in Outcome.FinalStates
	// (disabling the early exits so the state is exact).
	SaveStates bool
	// Workers is the number of goroutines the independent fault groups are
	// sharded over. 0 or 1 simulates sequentially on the calling goroutine;
	// n > 1 uses min(n, number of groups) workers, each with its own scratch
	// simulator. Results are merged into pre-sized per-group slices, so the
	// outcome is bit-identical to a sequential run regardless of scheduling.
	// AbortAfterFirstGroupIfNone always simulates group 0 alone, before any
	// fan-out, to preserve the Section 4.2 effort reduction.
	Workers int
	// Kernel selects the gate-evaluation strategy. It is test-facing only:
	// every production caller leaves it at the zero value (KernelAuto),
	// which honors the FSIM_KERNEL environment variable and defaults to the
	// slab kernel. Tests set KernelDense to get the trusted reference that
	// difftest, the golden pins and the fuzz targets compare slab against;
	// both kernels produce bit-identical outcomes for every fault model, so
	// the choice only affects speed and telemetry.
	Kernel Kernel
	// SlabLanes is the number of fault groups the slab kernel batches into
	// one multi-group pass (W in the slab layout: W×64 machines per gate
	// visit). It is test-facing only: production callers leave it 0, which
	// picks 8 lanes, capped at ceil(groups/Workers) so every worker gets a
	// batch. A positive value overrides that choice for the lane-invariance
	// sweeps of difftest and the kernel benchmarks. Either is clamped to 16
	// and to the number of groups. Ignored by the dense kernel. Like
	// Workers, it never changes the outcome — only how the identical result
	// is computed.
	SlabLanes int
	// Ctx, if non-nil, cancels the run at fault-group granularity: the
	// worker pool (and the sequential loop) checks it before claiming each
	// group, so a cancelled run stops scheduling new passes and returns its
	// workers promptly instead of burning through the remaining groups. A
	// group already in flight finishes its pass — results stay well-formed —
	// and the skipped groups are counted in Outcome.Work.GroupsCancelled,
	// which marks the outcome Cancelled. A nil Ctx (the default) never
	// cancels and costs nothing.
	Ctx context.Context
	// Trace, if non-nil, receives the run's detection-provenance stream
	// (see internal/obsv): one event per first detection carrying the fault
	// index, time unit, detecting primary output, fault group, worker and
	// kernel, plus group 0's per-cycle fault-free activity curve and each
	// group's simulated vector count. Events are buffered per group and
	// merged in group order, so the canonical stream is bit-identical for
	// any Workers count and either kernel. A nil Trace costs one nil check
	// per group pass and one per detection — nothing on the per-gate paths.
	Trace *obsv.Trace
}

// Kernel selects the gate-evaluation strategy of a run.
type Kernel uint8

const (
	// KernelAuto resolves to the kernel named by the FSIM_KERNEL environment
	// variable ("dense" or "slab"), or to KernelSlab when it is unset or
	// unparsable. It is the zero value and the only kernel production code
	// asks for: no command or config layer above fsim picks a kernel, so
	// FSIM_KERNEL alone steers the whole test suite (CI's dense row) through
	// either kernel, and benchmark and trace code read KernelAuto.Resolve()
	// to record which one ran.
	KernelAuto Kernel = iota
	// KernelDense is the original kernel: every gate of the levelized
	// netlist is evaluated on every time unit, one fault group per pass. It
	// is the trusted baseline the slab kernel is differentially locked
	// against.
	KernelDense
	// KernelSlab is the multi-group slab kernel: up to Options.SlabLanes
	// fault groups are simulated per pass, with per-gate state held in a
	// contiguous row-major slab so one levelized walk advances lanes×64
	// machines per gate visit, and the live faults of a batch are repacked
	// into fewer lanes as they thin out (see slab.go). It injects every
	// fault model natively and is bit-identical to dense by construction.
	KernelSlab
)

// String returns "auto", "dense" or "slab".
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelDense:
		return "dense"
	case KernelSlab:
		return "slab"
	default:
		return fmt.Sprintf("Kernel(%d)", uint8(k))
	}
}

// ParseKernel maps an FSIM_KERNEL spelling to a Kernel ("" and "auto" mean
// KernelAuto).
func ParseKernel(s string) (Kernel, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return KernelAuto, nil
	case "dense":
		return KernelDense, nil
	case "slab":
		return KernelSlab, nil
	default:
		return KernelAuto, fmt.Errorf("fsim: unknown kernel %q (want auto, dense or slab)", s)
	}
}

// Resolve maps KernelAuto to a concrete kernel via the FSIM_KERNEL
// environment variable, defaulting to the slab kernel.
func (k Kernel) Resolve() Kernel {
	if k != KernelAuto {
		return k
	}
	if env, err := ParseKernel(os.Getenv("FSIM_KERNEL")); err == nil && env != KernelAuto {
		return env
	}
	return KernelSlab
}

// Outcome reports the result of a run over a fault list.
type Outcome struct {
	// Detected[i] reports whether faults[i] was detected.
	Detected []bool
	// DetTime[i] is the first time unit at which faults[i] was detected
	// (-1 if undetected). A run from InitialStates counts on from the
	// time unit at which the saving run ended.
	DetTime []int
	// NumDetected is the number of detected faults.
	NumDetected int
	// Lines[i] is a bitset over node ids (only when ObserveLines was set):
	// bit n set means the faulty machine for faults[i] differed binarily from
	// the fault-free machine at node n at some time unit.
	Lines []Bitset
	// FinalStates is every machine's state at the end of the run (only when
	// SaveStates was set); see States.
	FinalStates *States
	// Work is the simulation work of the run, which Run also adds to the
	// telemetry counters once it returns.
	Work Work
}

// Cancelled reports that Options.Ctx was cancelled before every fault group
// had been simulated: the outcome covers only the groups that ran, so the
// caller should discard it (pipeline stages surface ctx.Err() instead).
func (o *Outcome) Cancelled() bool { return o.Work.GroupsCancelled > 0 }

// Work counts the simulation work of one run, each field on the telemetry
// counter named beside it (fsim.faults_dropped is NumDetected). Neither the
// kernel, its lane width nor Workers changes any field but Slab: both
// kernels count dense-equivalent gate evaluations (vectors × gates).
type Work struct {
	GateEvals       int64 // fsim.gate_evals
	Vectors         int64 // fsim.vectors: time units simulated, over all group passes
	GroupPasses     int64 // fsim.group_passes
	GroupsCancelled int64 // fsim.groups_cancelled: groups skipped by cancellation
	RepeatExits     int64 // fsim.repeat_exits
	Slab            SlabWork
}

// SlabWork is the slab kernel's batch work, which follows its lane width.
type SlabWork struct {
	Passes     int64 // fsim.slab_passes: batches simulated
	LanesIdle  int64 // fsim.slab_lanes_idle: lane-cycles holding no live machine
	LaneCycles int64 // fsim.slab_lane_cycles: lanes walked, summed over time units
}

// add accumulates o into w.
func (w *Work) add(o *Work) {
	w.GateEvals += o.GateEvals
	w.Vectors += o.Vectors
	w.GroupPasses += o.GroupPasses
	w.GroupsCancelled += o.GroupsCancelled
	w.RepeatExits += o.RepeatExits
	w.Slab.Passes += o.Slab.Passes
	w.Slab.LanesIdle += o.Slab.LanesIdle
	w.Slab.LaneCycles += o.Slab.LaneCycles
}

// publish adds the work of a run (if any) to the telemetry counters.
func (o *Outcome) publish() {
	if o == nil || o.Work == (Work{}) {
		return
	}
	w := &o.Work
	telemetry.Add(telemetry.CtrGateEvals, w.GateEvals)
	telemetry.Add(telemetry.CtrVectors, w.Vectors)
	telemetry.Add(telemetry.CtrGroupPasses, w.GroupPasses)
	telemetry.Add(telemetry.CtrFaultsDropped, int64(o.NumDetected))
	telemetry.Add(telemetry.CtrGroupsCancelled, w.GroupsCancelled)
	telemetry.Add(telemetry.CtrRepeatExits, w.RepeatExits)
	telemetry.Add(telemetry.CtrSlabPasses, w.Slab.Passes)
	telemetry.Add(telemetry.CtrSlabLanesIdle, w.Slab.LanesIdle)
	telemetry.Add(telemetry.CtrSlabLaneCycles, w.Slab.LaneCycles)
}

// Bitset is a fixed-size bitset over node ids.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)/64) }

// Set sets bit i.
func (b Bitset) Set(i int) { b[i/64] |= 1 << (uint(i) % 64) }

// Get reports bit i.
func (b Bitset) Get(i int) bool { return b[i/64]&(1<<(uint(i)%64)) != 0 }

// Count returns the number of set bits.
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// Simulator runs fault simulations over one circuit. It is cheap to create;
// scratch buffers are reused across runs.
//
// A Simulator is NOT safe for concurrent use by multiple goroutines: every
// run scribbles over the shared scratch buffers. To parallelize, set
// Options.Workers instead — Run then shards the independent fault groups
// over an internal pool of per-worker simulators (reused across runs) and
// merges their results deterministically.
type Simulator struct {
	c    *circuit.Circuit
	vals []logic.W
	next []logic.W

	// pool holds the extra per-worker simulators of parallel runs, grown on
	// demand and reused across runs. They share the receiver's immutable
	// flattened netlist and own only scratch state.
	pool []*Simulator
	// slots are Speculate's per-candidate simulators, built like pool and
	// kept warm across calls. slot is set on a slot only: every call on it
	// is sequential (Workers is ignored), and Run leaves its work for
	// Speculate to count as committed or as discarded speculation.
	slots []*Simulator
	slot  bool

	// Flattened netlist (hot-loop friendly): for gate k in evaluation order,
	// gateID[k] is its node id, gateType[k] its type, and its fanins are
	// faninList[faninStart[k]:faninStart[k+1]].
	gateID     []circuit.NodeID
	gateType   []circuit.GateType
	faninStart []int32
	faninList  []circuit.NodeID

	// per-group fault injection tables, rebuilt for each group
	stemMask0 []uint64 // per node: slots forced to 0 at the node output
	stemMask1 []uint64
	// pinIdx[node] is -1 when the node has no pin faults in this group,
	// otherwise an index into pinForces. A flat slice keeps the per-gate
	// lookup in the hot loop branch-predictable and map-free.
	pinIdx    []int32
	pinNodes  []circuit.NodeID // nodes with pin faults (for cheap clearing)
	pinForces [][]pinForce
	poScratch []logic.W

	// per-group transition/bridge fault sites (see model.go). special is set
	// when the current group carries any transition or bridge fault, so
	// stuck-at-only groups skip every model hook on the hot paths; hasBridge
	// additionally arms the dense kernel's two-pass cycle.
	transIdx    []int32
	transNodes  []circuit.NodeID
	transSites  [][]transSite
	bridgeIdx   []int32
	bridgeNodes []circuit.NodeID
	bridgeSites [][]bridgeSite
	special     bool
	hasBridge   bool
	// hist is the dense kernel's per-cycle scratch copy of its transition
	// sites' launch history, one word per site, for the repeat exit.
	hist []logic.W

	// detectable[id] reports whether a fault effect at node id can reach a
	// primary output (see detectableNodes). It is immutable and shared, like
	// the flattened netlist, by every pooled worker.
	detectable []bool
	// lay is the slab kernel's walk-order row layout, immutable and shared
	// like the flattened netlist. slab is the slab kernel's scratch arena
	// (multi-group value/state slabs, sparse injection tables, per-lane and
	// per-group bookkeeping), allocated on first use and reused across
	// batches and runs.
	lay  *slabLayout
	slab *slabState

	// worker is this simulator's index in a parallel run's worker pool or
	// among Speculate's slots (0 for the receiver). It is a trace and panic
	// annotation only and never part of any canonical output.
	worker int
	// Activity-trace scratch (see traceActivity): the packed fault-free
	// slot-0 bits of every node as of the previous traced cycle. actValid
	// is reset at the start of each traced group-0 pass so the first cycle
	// only establishes the baseline.
	actZ, actO []uint64
	actValid   bool

	// watch is the repeat exit's checkpoint of the dense kernel's current
	// group pass (the slab kernel keeps one per lane).
	watch repeatWatch
}

type pinForce struct {
	pin  int
	mask uint64
	bit  bool
}

// New returns a simulator for c.
func New(c *circuit.Circuit) *Simulator {
	s := newScratch(c)
	s.gateID = make([]circuit.NodeID, len(c.Order))
	s.gateType = make([]circuit.GateType, len(c.Order))
	s.faninStart = make([]int32, len(c.Order)+1)
	for k, id := range c.Order {
		n := &c.Nodes[id]
		s.gateID[k] = id
		s.gateType[k] = n.Type
		s.faninStart[k+1] = s.faninStart[k] + int32(len(n.Fanins))
		s.faninList = append(s.faninList, n.Fanins...)
	}
	s.detectable = detectableNodes(c)
	s.lay = newSlabLayout(c)
	return s
}

// newScratch allocates the mutable per-run state of a simulator for c.
func newScratch(c *circuit.Circuit) *Simulator {
	s := &Simulator{
		c:         c,
		vals:      make([]logic.W, len(c.Nodes)),
		next:      make([]logic.W, len(c.DFFs)),
		stemMask0: make([]uint64, len(c.Nodes)),
		stemMask1: make([]uint64, len(c.Nodes)),
		pinIdx:    make([]int32, len(c.Nodes)),
		transIdx:  make([]int32, len(c.Nodes)),
		bridgeIdx: make([]int32, len(c.Nodes)),
	}
	for i := range s.pinIdx {
		s.pinIdx[i] = -1
		s.transIdx[i] = -1
		s.bridgeIdx[i] = -1
	}
	return s
}

// workerSims returns n simulators over the receiver's circuit: the receiver
// itself plus n-1 pooled workers sharing its immutable flattened netlist.
// The pool grows on demand and is reused across runs.
func (s *Simulator) workerSims(n int) []*Simulator {
	for len(s.pool) < n-1 {
		w := s.sibling()
		w.worker = len(s.pool) + 1
		s.pool = append(s.pool, w)
	}
	sims := make([]*Simulator, 0, n)
	sims = append(sims, s)
	return append(sims, s.pool[:n-1]...)
}

// slotSims returns Speculate's first n speculation slots, growing them on
// demand.
func (s *Simulator) slotSims(n int) []*Simulator {
	for len(s.slots) < n {
		w := s.sibling()
		w.worker = len(s.slots) + 1
		w.slot = true
		s.slots = append(s.slots, w)
	}
	return s.slots[:n]
}

// sibling returns a simulator with its own scratch state that shares the
// receiver's immutable flattened netlist.
func (s *Simulator) sibling() *Simulator {
	w := newScratch(s.c)
	w.gateID = s.gateID
	w.gateType = s.gateType
	w.faninStart = s.faninStart
	w.faninList = s.faninList
	w.detectable = s.detectable
	w.lay = s.lay
	return w
}

// Run fault-simulates seq against faults and returns the outcome.
func Run(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, opts Options) *Outcome {
	return New(c).Run(seq, faults, opts)
}

// Run fault-simulates seq against faults and returns the outcome.
//
// Run alone decides how fault groups are dispatched, for both kernels: the
// kernel only simulates a batch of consecutive groups in one pass (one group
// for dense, up to slabWidth for slab). With Options.Workers > 1 the batches
// are sharded over a worker pool; each batch writes a disjoint slice region
// of the outcome, so the result is bit-identical to the sequential run
// regardless of scheduling.
func (s *Simulator) Run(seq *sim.Sequence, faults []fault.Fault, opts Options) *Outcome {
	out := s.run(seq, faults, opts)
	if !s.slot {
		out.publish()
	}
	return out
}

func (s *Simulator) run(seq *sim.Sequence, faults []fault.Fault, opts Options) *Outcome {
	opts.Kernel = opts.Kernel.Resolve() // resolve env/default exactly once
	if s.slot {
		opts.Workers = 1 // a speculation slot runs one candidate's call alone
	}
	numGroups := (len(faults) + GroupSize - 1) / GroupSize
	opts.Trace.Begin(numGroups, opts.Kernel.String())
	if opts.InitialStates != nil {
		opts.InitialStates.check(len(faults), len(s.c.DFFs))
	}
	out := &Outcome{
		Detected: make([]bool, len(faults)),
		DetTime:  make([]int, len(faults)),
	}
	for i := range out.DetTime {
		out.DetTime[i] = -1
	}
	if opts.ObserveLines {
		out.Lines = make([]Bitset, len(faults))
		for i := range out.Lines {
			out.Lines[i] = NewBitset(len(s.c.Nodes))
		}
	}
	if opts.SaveStates {
		out.FinalStates = newStates(faults, numGroups, len(s.c.DFFs), opts.InitialStates.start()+seq.Len())
	}
	if numGroups == 0 {
		return out
	}

	if ctxDone(opts.Ctx) {
		out.Work.GroupsCancelled = int64(numGroups)
		return out
	}
	// pass simulates the nl groups from g0 in one pass: the dense kernel's
	// batch is always one group, the slab kernel's up to slabWidth groups,
	// one per lane.
	pass := func(ws *Simulator, g0, nl int, wk *Work) int {
		lo := g0 * GroupSize
		return ws.runGroupDense(seq, faults, lo, min(lo+GroupSize, len(faults)), opts, out, wk)
	}
	if opts.Kernel == KernelSlab {
		pass = func(ws *Simulator, g0, nl int, wk *Work) int {
			return ws.runSlabBatch(seq, faults, g0, nl, opts, out, wk)
		}
	}

	first := 0
	if opts.AbortAfterFirstGroupIfNone {
		// The Section 4.2 effort reduction: the first group (target fault
		// plus sample) always runs alone, in a one-lane pass before any
		// fan-out, so the abort decision is the same for every kernel.
		out.NumDetected = pass(s, 0, 1, &out.Work)
		if out.NumDetected == 0 {
			return out
		}
		first = 1
	}
	rem := numGroups - first
	w := 1
	if opts.Kernel == KernelSlab {
		w = slabWidth(opts, rem)
	}
	numBatches := (rem + w - 1) / w
	batch := func(ws *Simulator, b int, wk *Work) int {
		g0 := first + b*w
		return pass(ws, g0, min(w, numGroups-g0), wk)
	}

	workers := min(opts.Workers, numBatches)
	if workers <= 1 {
		for b := 0; b < numBatches; b++ {
			if ctxDone(opts.Ctx) {
				out.Work.GroupsCancelled += int64(rem - b*w)
				break
			}
			out.NumDetected += batch(s, b, &out.Work)
		}
		return out
	}

	// Parallel fan-out over batch indices: each batch writes the disjoint
	// outcome regions of its own groups; per-batch detection counts are
	// merged in batch order afterwards, so the sum (and everything else) is
	// independent of scheduling.
	detected := make([]int, numBatches)
	claimed := fanOut(opts.Ctx, s.workerSims(workers), numBatches, &out.Work, func(ws *Simulator, b int, wk *Work) {
		detected[b] = batch(ws, b, wk)
	})
	for _, n := range detected {
		out.NumDetected += n
	}
	// Every claimed batch ran to completion; the rest were skipped due to
	// cancellation. Unclaimed batches before the tail are full-width, so the
	// skipped group count is exact.
	if claimed < numBatches {
		out.Work.GroupsCancelled += int64(rem - claimed*w)
	}
	return out
}

// fanOut runs work(ws, i, w) for the items i in [0, n) on one goroutine per
// simulator of sims, which claim items from a shared cursor and count into
// their own w, adds those to total and returns the number of items claimed:
// all n unless ctx was cancelled. A panic on a pool goroutine would end the
// process whatever the caller does, so it is recovered there: the other
// goroutines stop claiming items, and once all have returned the first panic
// is raised again on the calling goroutine, where the caller can recover it.
func fanOut(ctx context.Context, sims []*Simulator, n int, total *Work, work func(ws *Simulator, i int, w *Work)) int {
	var wg sync.WaitGroup
	var cursor atomic.Int64
	var failed atomic.Bool
	var once sync.Once
	var msg string
	works := make([]Work, len(sims))
	for k, ws := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					once.Do(func() { msg = fmt.Sprintf("fsim: worker %d panicked: %v\n%s", ws.worker, p, debug.Stack()) })
					failed.Store(true)
				}
			}()
			for {
				// Checked before claiming, so a cancelled run stops
				// scheduling passes and this goroutine exits (the "return
				// workers to the pool" half of job cancellation).
				if ctxDone(ctx) || failed.Load() {
					return
				}
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				work(ws, i, &works[k])
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		panic(msg)
	}
	for k := range works {
		total.add(&works[k])
	}
	return min(int(cursor.Load()), n)
}

// Speculate runs an in-order candidate loop, the accept-or-discard loop of
// directed search, compaction and weight selection: next prepares the next
// candidate against the committed state (false: no more candidates), eval
// fault-simulates it in at most one Run and returns that Run's outcome (nil
// if none), and commit consumes the evaluations in candidate order and
// reports whether it accepted one. The loop ends once next has no candidate
// and every prepared one has been committed.
//
// With workers <= 1 it is exactly that loop, one candidate at a time on the
// caller's goroutine and simulator. With more, up to workers candidates are
// evaluated at once, each on a speculation slot of its own: a simulator kept
// warm across calls that runs every call at Workers=1. (A candidate with no
// other prepared behind it has nothing to overlap, so it still runs on the
// caller's simulator, at the caller's Workers.) A candidate is evaluated on
// the bet that the candidates before it are rejected: next is called with
// ahead earlier candidates still uncommitted and must prepare the candidate
// the sequential loop would reach once they are all rejected.
// A candidate is committed only once every earlier one has been committed
// and rejected. The first acceptance discards every later candidate in
// flight; commit must leave the state from which next, called again,
// prepares them afresh (and next is called again even if it had reported no
// candidate). The commits are therefore the sequential loop's, for any
// workers.
//
// A committed evaluation's Outcome.Work is published as any call's is; a
// discarded evaluation adds only its Work.Vectors to
// fsim.speculative_vectors, and nothing to any other counter. next and
// commit run on the caller's goroutine; eval must touch only its candidate
// and the simulator it is given. A panic in eval is raised again on the
// caller's goroutine once every slot has stopped, as fanOut does.
// Cancellation is the callers': next should stop preparing candidates once
// their context is cancelled.
func Speculate[C any](s *Simulator, workers int, next func(ahead int) (C, bool), eval func(ws *Simulator, c C) *Outcome, commit func(c C) bool) {
	if workers <= 1 {
		for {
			c, ok := next(0)
			if !ok {
				return
			}
			eval(s, c)
			commit(c)
		}
	}
	type job struct {
		c    C
		out  *Outcome      // the evaluation's run, its work not yet published
		done chan struct{} // closed once eval has returned or panicked
	}
	jobs := make(chan *job)
	var wg sync.WaitGroup
	var failed atomic.Bool
	var once sync.Once
	var msg string
	for _, ws := range s.slotSims(workers) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				func() {
					defer func() {
						if p := recover(); p != nil {
							once.Do(func() { msg = fmt.Sprintf("fsim: speculation slot %d panicked: %v\n%s", ws.worker, p, debug.Stack()) })
							failed.Store(true)
						}
						close(j.done)
					}()
					j.out = eval(ws, j.c)
				}()
			}
		}()
	}
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			close(jobs)
			wg.Wait()
		}
	}
	defer stop() // a panic in next or commit still stops the slots

	var queue, discarded []*job
	more := true
	for !failed.Load() {
		for more && len(queue) < workers {
			c, ok := next(len(queue))
			if !ok {
				more = false
				break
			}
			queue = append(queue, &job{c: c})
		}
		if len(queue) == 0 {
			break
		}
		if len(queue) == 1 && queue[0].done == nil {
			c := queue[0].c
			queue = nil
			eval(s, c)
			more = commit(c)
			continue
		}
		for _, j := range queue {
			if j.done == nil {
				j.done = make(chan struct{})
				jobs <- j // waits for a free slot
			}
		}
		head := queue[0]
		queue = queue[1:]
		<-head.done
		if failed.Load() {
			break
		}
		head.out.publish()
		if commit(head.c) {
			discarded = append(discarded, queue...)
			queue, more = nil, true
		}
	}
	stop()
	if failed.Load() {
		panic(msg)
	}
	var wasted int64
	for _, j := range discarded {
		if j.out != nil {
			wasted += j.out.Work.Vectors
		}
	}
	telemetry.Add(telemetry.CtrSpeculativeVectors, wasted)
}

// earlyExitEligible reports whether a group pass may stop before the end of
// the sequence: once every fault is detected, or at a repeat exit. A saved
// final state, internal-line observation and an output hook all need the
// whole sequence.
func earlyExitEligible(opts Options) bool {
	return !opts.ObserveLines && opts.OutputHook == nil && !opts.SaveStates
}

// ctxDone reports whether a (possibly nil) context has been cancelled.
func ctxDone(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// runGroupDense is the dense kernel: it simulates faults[lo:hi] (at most
// GroupSize of them) in slots 1..hi-lo alongside the fault-free machine in
// slot 0, with one full pass over the levelized netlist per time unit (two
// for a group with bridges). It writes only this group's disjoint regions
// of out (Detected/DetTime/Lines and the saved states of faults[lo:hi]) and
// returns the number of detections; never touching shared scalars is what
// makes the parallel fan-out race-free. It is the trusted baseline the slab
// kernel is differentially locked against, and its time unit stays
// byte-for-byte unoptimized; only the early exits, which both kernels take
// at the same point, shorten its passes.
func (s *Simulator) runGroupDense(seq *sim.Sequence, faults []fault.Fault, lo, hi int, opts Options, out *Outcome, w *Work) int {
	c := s.c
	tg := opts.Trace.Group(lo / GroupSize)
	tg.SetWorker(s.worker)
	if tg != nil && lo == 0 {
		s.actValid = false // activity baseline starts with this pass
	}
	// Build injection tables. Stem masks and pin indices are cleared only at
	// the nodes touched by the previous group.
	for i := range s.stemMask0 {
		s.stemMask0[i] = 0
		s.stemMask1[i] = 0
	}
	for _, n := range s.pinNodes {
		s.pinIdx[n] = -1
	}
	s.pinNodes = s.pinNodes[:0]
	s.pinForces = s.pinForces[:0]
	s.clearModelInjection()
	for k := lo; k < hi; k++ {
		f := faults[k]
		slot := uint(k - lo + 1)
		switch {
		case f.Kind == fault.KindTransition:
			s.addTransSite(f.Node, 1<<slot, f.Stuck)
		case f.Kind == fault.KindBridge:
			s.addBridgeSite(f.Node, f.Node2, 1<<slot, f.Stuck == 1)
			s.addBridgeSite(f.Node2, f.Node, 1<<slot, f.Stuck == 1)
		case f.Pin < 0:
			if f.Stuck == 0 {
				s.stemMask0[f.Node] |= 1 << slot
			} else {
				s.stemMask1[f.Node] |= 1 << slot
			}
		default:
			idx := s.pinIdx[f.Node]
			if idx < 0 {
				idx = int32(len(s.pinForces))
				s.pinIdx[f.Node] = idx
				s.pinForces = append(s.pinForces, nil)
				s.pinNodes = append(s.pinNodes, f.Node)
			}
			s.pinForces[idx] = append(s.pinForces[idx],
				pinForce{pin: f.Pin, mask: 1 << slot, bit: f.Stuck == 1})
		}
	}

	units := 0
	det := 0

	state := s.next
	if opts.InitialStates != nil {
		copy(state, opts.InitialStates.groups[lo/GroupSize])
		s.loadHistory(opts.InitialStates, lo)
	} else {
		for i := range state {
			state[i] = logic.Broadcast(opts.Init)
		}
	}
	vals := s.vals

	activeMask := groupMask(hi - lo) // slots still undetected
	eligible := earlyExitEligible(opts)
	watched := s.repeatSlots(faults[lo:hi])
	t0 := opts.InitialStates.start()

	for u := 0; u < seq.Len(); u++ {
		if eligible && s.watch.repeats(u, state, s.denseHistory, 0, 1, activeMask&watched|1, seq) {
			w.RepeatExits++
			break // the rest of the pass would replay an earlier stretch
		}
		units++
		s.densePass(seq, state, u, false)
		if s.hasBridge {
			// Two-pass cycle: the first pass's nominal stem values resolve
			// each bridge's wired value, the replay pass applies it at both
			// stems so every downstream gate (at any level) sees it.
			s.resolveBridges()
			s.densePass(seq, state, u, true)
		}
		if tg != nil && lo == 0 {
			s.traceActivity(tg, s.vals, 1)
		}
		// Detection at primary outputs.
		for poi, id := range c.Outputs {
			d := vals[id].DiffMask() & activeMask
			for ; d != 0; d &= d - 1 {
				slot := trailingZeros(d)
				fi := lo + slot - 1
				out.Detected[fi] = true
				out.DetTime[fi] = t0 + u
				det++
				activeMask &^= 1 << uint(slot)
				if tg != nil {
					tg.Detect(fi, t0+u, poi)
				}
			}
		}
		if opts.OutputHook != nil {
			po := s.poScratch[:0]
			for _, id := range c.Outputs {
				po = append(po, vals[id])
			}
			s.poScratch = po
			opts.OutputHook(lo, hi, u, po)
		}
		// Observability recording on every node.
		if opts.ObserveLines {
			for id := range vals {
				d := vals[id].DiffMask()
				for ; d != 0; d &= d - 1 {
					slot := trailingZeros(d)
					if slot == 0 {
						continue
					}
					out.Lines[lo+slot-1].Set(id)
				}
			}
		}
		if activeMask == 0 && eligible {
			break // every fault in the group already detected
		}
		// Clock edge: next state, with DFF D-pin faults applied.
		for k, id := range c.DFFs {
			w := vals[c.Nodes[id].Fanins[0]]
			if idx := s.pinIdx[id]; idx >= 0 {
				for _, p := range s.pinForces[idx] {
					w = w.ForceMask(p.mask, p.bit)
				}
			}
			state[k] = w
		}
	}
	if opts.SaveStates {
		saved := make([]logic.W, len(state))
		copy(saved, state)
		out.FinalStates.groups[lo/GroupSize] = saved
		s.saveHistory(out.FinalStates, lo)
	}
	tg.SetVectors(units)
	w.GateEvals += int64(units) * int64(len(s.gateID))
	w.Vectors += int64(units)
	w.GroupPasses++
	return det
}

// inject applies the group's stem faults at node id.
func (s *Simulator) inject(id circuit.NodeID, w logic.W) logic.W {
	if m := s.stemMask0[id]; m != 0 {
		w = w.ForceMask(m, false)
	}
	if m := s.stemMask1[id]; m != 0 {
		w = w.ForceMask(m, true)
	}
	return w
}

func groupMask(n int) uint64 {
	// slots 1..n
	if n >= 63 {
		return ^uint64(0) &^ 1
	}
	return ((uint64(1) << uint(n+1)) - 1) &^ 1
}

func trailingZeros(x uint64) int { return bits.TrailingZeros64(x) }

// eval1 evaluates a 1-input gate.
func eval1(t circuit.GateType, a logic.W) logic.W {
	switch t {
	case circuit.Not, circuit.Nand, circuit.Nor, circuit.Xnor:
		return a.Not()
	default:
		return a
	}
}

// eval2 evaluates a 2-input gate without touching the scratch buffer.
func eval2(t circuit.GateType, a, b logic.W) logic.W {
	switch t {
	case circuit.And:
		return a.And(b)
	case circuit.Nand:
		return a.And(b).Not()
	case circuit.Or:
		return a.Or(b)
	case circuit.Nor:
		return a.Or(b).Not()
	case circuit.Xor:
		return a.Xor(b)
	case circuit.Xnor:
		return a.Xor(b).Not()
	default:
		panic("fsim: eval2 on non-gate type")
	}
}

// evalW evaluates a gate over dual-rail words.
func evalW(t circuit.GateType, in []logic.W) logic.W {
	switch t {
	case circuit.Buf:
		return in[0]
	case circuit.Not:
		return in[0].Not()
	case circuit.And, circuit.Nand:
		v := in[0]
		for _, x := range in[1:] {
			v = v.And(x)
		}
		if t == circuit.Nand {
			v = v.Not()
		}
		return v
	case circuit.Or, circuit.Nor:
		v := in[0]
		for _, x := range in[1:] {
			v = v.Or(x)
		}
		if t == circuit.Nor {
			v = v.Not()
		}
		return v
	case circuit.Xor, circuit.Xnor:
		v := in[0]
		for _, x := range in[1:] {
			v = v.Xor(x)
		}
		if t == circuit.Xnor {
			v = v.Not()
		}
		return v
	default:
		panic("fsim: evalW on non-gate type")
	}
}
