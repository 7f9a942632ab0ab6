// Package wbist is the public API of this repository: a from-scratch Go
// reproduction of Pomeranz & Reddy, "Built-In Generation of Weighted Test
// Sequences for Synchronous Sequential Circuits" (DATE 2000).
//
// The paper's scheme drives each primary input of a circuit under test with
// a short binary subsequence α repeated periodically (α^r); the subsequences
// are derived from a deterministic test sequence T so that, around every
// hard fault's detection time, the weighted sequence reproduces T exactly,
// which guarantees the fault is detected. On-chip, each subsequence length
// is served by one shared FSM and a counter steps through the selected
// weight assignments (the paper's Figure 1).
//
// # Quick start
//
//	run, err := wbist.RunCircuit("s298", wbist.Config{})
//	if err != nil { ... }
//	row := wbist.Table6(run)            // the paper's Table 6 columns
//	gen, err := wbist.Synthesize(run)   // the Figure 1 BIST hardware
//
// The heavy lifting lives in the internal packages (circuit model, .bench
// I/O, 3-valued bit-parallel fault simulation, test generation, the weight
// procedure, hardware synthesis, observation-point insertion); this package
// re-exports the surface needed to reproduce every experiment.
package wbist

import (
	"io"

	"repro/internal/atpg"
	"repro/internal/bench"
	"repro/internal/bist"
	"repro/internal/check"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/obsv"
	"repro/internal/rcg"
	"repro/internal/ref"
	"repro/internal/scoap"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/verilog"
	"repro/internal/wgen"
)

// Circuit is a validated gate-level netlist of a synchronous sequential
// circuit.
type Circuit = circuit.Circuit

// Sequence is a test sequence (one vector of input values per time unit).
type Sequence = sim.Sequence

// Fault is a single stuck-at fault (stem or fanout branch).
type Fault = fault.Fault

// Assignment is a weight assignment: one subsequence per primary input.
type Assignment = core.Assignment

// Config parameterises the experiment pipeline; the zero value reproduces
// the paper's setup (L_G = 2000).
type Config = expt.Config

// Run is a completed pipeline for one circuit: deterministic sequence,
// selected weight assignments (before and after reverse-order simulation)
// and the Table 6 accounting.
type Run = expt.Run

// Table6Row holds the columns of the paper's Table 6 for one circuit.
type Table6Row = expt.Table6Row

// ObsResult is the observation-point experiment outcome (Tables 7-16).
type ObsResult = obs.Result

// ObsRow is one row of an observation-point table.
type ObsRow = obs.Row

// Generator is a synthesized Figure 1 test-sequence generator netlist.
type Generator = wgen.Generator

// HardwareStats is the Table 6 hardware accounting of a set of weight
// assignments.
type HardwareStats = core.HardwareStats

// Value re-exports the ternary logic values.
type Value = logic.V

// Ternary logic constants.
const (
	Zero = logic.Zero
	One  = logic.One
	X    = logic.X
)

// S27TestSequenceText is the deterministic test sequence of the paper's
// Table 1 for the s27 benchmark (inputs G0..G3), in Sequence text format.
const S27TestSequenceText = iscas.S27TestSequence

// CircuitNames returns the benchmark suite in the paper's table order
// (s27 first, then the Table 6 circuits).
func CircuitNames() []string { return iscas.Names() }

// Table6Names returns the circuits of the paper's Table 6.
func Table6Names() []string { return iscas.Table6Names() }

// ObsTableNames returns the circuits of the paper's Tables 7-16.
func ObsTableNames() []string { return iscas.ObsTableNames() }

// LoadCircuit returns a suite circuit by name: the verbatim ISCAS-89 s27, or
// a deterministic synthetic circuit with the matching interface profile (see
// DESIGN.md "Substitutions").
func LoadCircuit(name string) (*Circuit, error) { return iscas.Load(name) }

// ParseBench reads a netlist in the ISCAS-89 .bench format.
func ParseBench(name string, r io.Reader) (*Circuit, error) { return bench.Parse(name, r) }

// WriteBench serialises a circuit in the .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return bench.Write(w, c) }

// Faults enumerates the equivalence-collapsed stuck-at fault list of a
// circuit.
func Faults(c *Circuit) []Fault { return fault.CollapsedUniverse(c) }

// FaultModelNames lists the canonical fault-model names understood by
// FaultsFor and by Config.FaultModel ("stuck-at", "transition", "bridge").
func FaultModelNames() []string { return fault.ModelNames() }

// FaultsFor enumerates the collapsed fault universe of a circuit under the
// named fault model ("" selects stuck-at; see FaultModelNames).
func FaultsFor(c *Circuit, model string) ([]Fault, error) {
	m, err := fault.ModelByName(model)
	if err != nil {
		return nil, err
	}
	return fault.CollapsedUniverseFor(c, m), nil
}

// GenerateTestSequence produces a deterministic test sequence for a circuit
// (the STRATEGATE/SEQCOM substitute: fault-simulation-driven search plus
// static compaction). init is the flip-flop initialisation (Zero or X).
func GenerateTestSequence(c *Circuit, init Value, seed uint64) (*Sequence, []Fault, []int) {
	r := atpg.Generate(c, atpg.Options{Seed: seed, Init: init})
	var targets []Fault
	var detTimes []int
	for i := range r.Faults {
		if r.Detected[i] {
			targets = append(targets, r.Faults[i])
			detTimes = append(detTimes, r.DetTime[i])
		}
	}
	return r.Seq, targets, detTimes
}

// SelectWeights runs the paper's weight-assignment selection procedure
// (Sections 3 and 4) for a circuit, a deterministic sequence and its
// detected faults with detection times. The returned result holds Ω and the
// weight set S.
func SelectWeights(c *Circuit, t *Sequence, targets []Fault, detTimes []int, lg int, init Value) (*core.Result, error) {
	return core.Run(c, t, targets, detTimes, core.Options{LG: lg, Init: init})
}

// ReverseOrderCompact prunes redundant weight assignments (Section 4.3).
func ReverseOrderCompact(r *core.Result) []Assignment { return core.ReverseOrderCompact(r, 1) }

// Accounting computes the Table 6 hardware statistics of a set of weight
// assignments.
func Accounting(omega []Assignment) HardwareStats { return core.Accounting(omega) }

// RunCircuit executes (and memoizes) the full pipeline for a suite circuit.
func RunCircuit(name string, cfg Config) (*Run, error) { return expt.RunCircuit(name, cfg) }

// RunPipeline executes the full pipeline on an arbitrary circuit with the
// given flip-flop initialisation.
func RunPipeline(c *Circuit, init Value, cfg Config) (*Run, error) {
	return expt.RunPipeline(c, init, cfg)
}

// Table6 extracts the paper's Table 6 columns from a run.
func Table6(r *Run) Table6Row { return expt.Table6(r) }

// ObsExperiment runs the Section 5 observation-point insertion experiment
// (the paper's Tables 7-16) on a run with cfg's Workers, Telemetry and Ctx
// (a cancelled cfg.Ctx stops it with the context's error).
func ObsExperiment(r *Run, cfg Config) (*ObsResult, error) { return expt.ObsExperiment(r, cfg) }

// Synthesize builds the Figure 1 test-sequence generator netlist for a run's
// compacted weight assignments; the result is an ordinary circuit that can
// be simulated and verified against the software-generated sequences.
func Synthesize(r *Run) (*Generator, error) { return expt.SynthesizeGenerator(r) }

// SynthesizeFSM builds a standalone weight FSM (the paper's Table 3) for a
// set of equal-length subsequences.
func SynthesizeFSM(name string, subs []string) (*Circuit, *wgen.FSM, error) {
	return wgen.SynthesizeFSM(name, subs)
}

// Simulate fault-simulates a sequence against a fault list and returns,
// per fault, whether it was detected and at which time unit (-1 if not).
func Simulate(c *Circuit, seq *Sequence, faults []Fault, init Value) (detected []bool, detTime []int) {
	out := fsim.Run(c, seq, faults, fsim.Options{Init: init})
	return out.Detected, out.DetTime
}

// WriteVerilog emits a circuit (benchmark or synthesized BIST hardware) as a
// synthesizable structural Verilog module.
func WriteVerilog(w io.Writer, c *Circuit) error { return verilog.Write(w, c) }

// WriteVerilogTestbench emits a self-checking Verilog testbench that applies
// seq to the module emitted by WriteVerilog and compares against the
// responses computed by this repository's simulator.
func WriteVerilogTestbench(w io.Writer, c *Circuit, seq *Sequence, init Value) error {
	return verilog.WriteTestbench(w, c, seq, init)
}

// Equivalent checks two same-interface circuits for behavioural equivalence
// by common random simulation from reset; it returns nil or the first
// mismatch found (a *check.Mismatch, which carries the exposing stimulus).
func Equivalent(a, b *Circuit, seed uint64, init Value) error {
	return check.Equivalent(a, b, check.Options{Seed: seed, Init: init})
}

// Testability computes SCOAP controllability/observability measures for a
// circuit with the given flip-flop initialisation.
func Testability(c *Circuit, init Value) *scoap.Measures {
	return scoap.Analyze(c, init)
}

// BISTReport is the outcome of a signature-based self-test session
// (generator sequence → CUT → MISR).
type BISTReport = bist.Report

// RunBISTSession applies the continuous weighted test session of a run
// (every assignment window back to back, as the Figure 1 hardware does) to
// the circuit and compacts the responses in a MISR of the given width,
// returning signature-based fault coverage including aliasing and
// unknown-poisoning accounting, with cfg's Workers, Telemetry and Ctx (a
// cancelled cfg.Ctx stops it with the context's error).
func RunBISTSession(r *Run, misrWidth int, cfg Config) (*BISTReport, error) {
	return bist.RunWeightedSession(cfg.Ctx, r.Core, r.Compacted, misrWidth, cfg.Workers, cfg.Telemetry.Root())
}

// ConcatSession builds the continuous test session a set of weight
// assignments applies (lg cycles per assignment, no resets in between).
func ConcatSession(omega []Assignment, lg int) *Sequence {
	return core.ConcatSequence(omega, lg)
}

// Compose stitches a driver circuit's primary outputs onto a load circuit's
// primary inputs, producing one netlist — the way a synthesized test
// generator is attached to its circuit under test on silicon.
func Compose(name string, driver, load *Circuit) (*Circuit, error) {
	return circuit.Compose(name, driver, load)
}

// SynthesizeSchedule builds the Figure 1 generator with leading pseudo-random
// LFSR windows (the paper's future-work extension realised in hardware).
func SynthesizeSchedule(name string, randomWindows int, omega []Assignment, lg int) (*Generator, error) {
	return wgen.SynthesizeSchedule(name, randomWindows, omega, lg)
}

// Recorder collects pipeline telemetry: hierarchical phase spans (wall clock
// + allocations) and hot-path counter deltas. Install one via
// Config.Telemetry; a nil recorder disables telemetry at near-zero cost.
type Recorder = telemetry.Recorder

// PhaseStats is the aggregated cost of one pipeline phase.
type PhaseStats = telemetry.PhaseStats

// MetricsSink consumes telemetry span events (see NewJSONLSink).
type MetricsSink = telemetry.Sink

// NewRecorder returns a telemetry recorder feeding the given sinks; with no
// sinks it still aggregates per-phase totals in memory (Recorder.Phases).
func NewRecorder(sinks ...MetricsSink) *Recorder { return telemetry.New(sinks...) }

// NewJSONLSink returns a telemetry sink that writes one JSON object per
// completed span to w (the CLI's -metrics format).
func NewJSONLSink(w io.Writer) *telemetry.JSONLSink { return telemetry.NewJSONLSink(w) }

// CounterSnapshot is a point-in-time copy of the process-wide hot-path
// counters (gate evaluations, vectors simulated, PODEM backtracks, ...).
type CounterSnapshot = telemetry.Snapshot

// Counters returns the current hot-path counter values; subtract two
// snapshots (Snapshot.Sub) to cost a region.
func Counters() CounterSnapshot { return telemetry.Counters() }

// DebugServer is a running debug/metrics HTTP server (see ServeDebug).
type DebugServer = telemetry.DebugServer

// ServeDebug exposes net/http/pprof and expvar (including the hot-path
// counters) under /debug/ on addr, plus the Prometheus text exposition under
// /metrics (the CLI's -pprof flag). The returned server reports its bound
// address via Addr and surfaces the serve error on Err.
func ServeDebug(addr string) (*DebugServer, error) { return telemetry.ServeDebug(addr) }

// SetGauge publishes a process-wide gauge into the Prometheus exposition
// (exposed as wbist_<name>).
func SetGauge(name string, v float64) { telemetry.SetGauge(name, v) }

// WritePrometheus writes all telemetry (counters, span-duration histograms,
// gauges) in the Prometheus text format, as served under /metrics.
func WritePrometheus(w io.Writer) { telemetry.WritePrometheus(w) }

// RunTrace is the detection-provenance record of one whole pipeline run: the
// deterministic sequence T against the collapsed fault universe, then every
// compacted weight assignment's window against the targets it mops up — for
// each detection the fault, time unit, detecting primary output, fault group,
// worker and kernel. The canonical stream is bit-identical across worker
// counts and kernels.
type RunTrace = obsv.RunTrace

// DetectionEvent is one first detection inside a traced run.
type DetectionEvent = obsv.Event

// RunReport is the digested view of a run: coverage-vs-vector curve with its
// knee, phase cost breakdown, kernel counters, slowest fault groups and the
// per-assignment detection attribution.
type RunReport = obsv.Report

// TraceRun re-simulates a completed run with detection tracing at cfg.Workers
// and returns its provenance record (the data behind `wbist report`); a
// cancelled cfg.Ctx stops it with the context's error.
func TraceRun(r *Run, cfg Config) (*RunTrace, error) { return expt.TraceRun(r, cfg) }

// WriteTrace serialises a run trace as JSON lines (schema wbist-trace/v1).
func WriteTrace(w io.Writer, rt *RunTrace) error { return obsv.WriteTrace(w, rt) }

// ReadTrace parses a JSONL run trace written by WriteTrace.
func ReadTrace(r io.Reader) (*RunTrace, error) { return obsv.ReadTrace(r) }

// BuildReport digests a run trace and optional per-phase metrics into a run
// report; either input may be nil/empty.
func BuildReport(rt *RunTrace, phases []PhaseStats) *RunReport {
	return obsv.BuildReport(rt, phases)
}

// RenderReport writes the human-readable form of a run report.
func RenderReport(w io.Writer, rep *RunReport) { obsv.Render(w, rep) }

// ReadMetrics parses a JSON-lines metrics file (the -metrics format) into
// per-phase totals, the other ingestion path of `wbist report`.
func ReadMetrics(r io.Reader) ([]PhaseStats, error) { return telemetry.ReadJSONL(r) }

// RCGParams parameterises the seeded random circuit generator (all counts
// clamped into supported ranges; deterministic in Seed).
type RCGParams = rcg.Params

// RandomCircuit generates a random synchronous circuit for correctness
// tooling: guaranteed acyclic combinational core, structurally diverse
// (uniform gate types, optional flip-flop self-loops, degenerate interfaces
// allowed). The whole pipeline accepts the result like any benchmark.
func RandomCircuit(p RCGParams) (*Circuit, error) { return rcg.Generate(p) }

// RandomCircuitFromSeed derives small fuzz-sized parameters from a single
// seed and generates the circuit (the decoder of the differential fuzz
// targets: one uint64 names one circuit).
func RandomCircuitFromSeed(seed uint64) *Circuit { return rcg.FromSeed(seed) }

// ReferenceSimulate runs the deliberately naive reference fault simulator —
// one fault at a time, scalar three-valued evaluation through restated truth
// tables, sharing no code with Simulate's bit-parallel engine — and returns
// the same detection shape as Simulate. Agreement between the two on the
// same inputs is the repository's correctness oracle (see DESIGN.md).
func ReferenceSimulate(c *Circuit, seq *Sequence, faults []Fault, init Value) (detected []bool, detTime []int) {
	out := ref.Run(c, seq, faults, ref.Options{Init: init})
	return out.Detected, out.DetTime
}

// ArtifactStore is a content-addressed, persistent cache of compiled BIST
// artifacts, keyed by canonical netlist bytes plus the JSON encoding of the
// canonical Config, whose json tags name its identity fields (see
// internal/store).
type ArtifactStore = store.Store

// OpenStore creates (if needed) and opens an artifact store rooted at dir.
func OpenStore(dir string) (*ArtifactStore, error) { return store.Open(dir) }

// StoreKey computes the content address of a compilation from the raw
// .bench netlist, the flip-flop initialisation and a canonical
// configuration (CanonicalConfig).
func StoreKey(netlist []byte, init Value, cfg Config) (string, error) {
	return store.Key(netlist, init, cfg)
}

// CanonicalConfig resolves a configuration into the canonical form both
// cache layers key on: per-circuit presets applied, defaults filled.
func CanonicalConfig(name string, cfg Config) Config { return expt.CanonicalConfig(name, cfg) }

// JobServer is the HTTP/JSON BIST-compilation service (wbist serve): job
// submission, progress streaming, cancellation and artifact fetch over a
// shared ArtifactStore.
type JobServer = serve.Server

// ServeOptions configure a JobServer.
type ServeOptions = serve.Options

// NewJobServer builds the job service over an artifact store.
func NewJobServer(opts ServeOptions) (*JobServer, error) { return serve.New(opts) }
