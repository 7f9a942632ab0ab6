// Package expt orchestrates the per-circuit experiment pipeline
// (load/generate circuit → deterministic sequence → weight-assignment
// selection → postprocessing → accounting) and regenerates every table and
// figure of the paper. Results are memoized per (circuit, configuration) so
// the CLI tools and benchmarks can share runs.
package expt

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/wgen"
)

// Config parameterises a pipeline run. The zero value reproduces the paper's
// setup (L_G = 2000).
type Config struct {
	// LG is the per-assignment sequence length (paper: 2000).
	LG int
	// Seed drives the deterministic-sequence generator and fault sampling.
	Seed uint64
	// ATPGRandomLen overrides the phase-1 random sequence length (0 = auto).
	ATPGRandomLen int
	// ATPGNoCompaction disables static compaction of the deterministic
	// sequence (used for the largest circuit, where compaction dominates
	// runtime without changing any conclusion).
	ATPGNoCompaction bool
	// ATPGNoPodem disables the deterministic PODEM phase of sequence
	// generation (used for the largest circuit, where the scalar searches
	// dominate runtime).
	ATPGNoPodem bool
	// RandomWindows prepends this many pseudo-random LFSR windows to the
	// schedule (the paper's future-work extension); faults they detect need
	// no weight assignments.
	RandomWindows int
	// FaultModel names the fault model the pipeline targets: "" or
	// "stuck-at" (the paper's model), "transition" (launch-on-capture) or
	// "bridge" (2-node wired-AND/OR pairs); see fault.ModelByName. Unlike
	// Workers/Kernel/SlabLanes the model CHANGES every result bit — the
	// fault universe, the targets, the selected assignments — so it IS part
	// of the memoization key (and of the persistent store identity behind
	// `wbist serve`).
	FaultModel string
	// CoreOptions overrides fields of the core options other than LG, Init
	// and Seed (ablation switches).
	NoSampleFirst     bool
	NoForceFullLength bool
	NoMatchOrdering   bool
	// Telemetry, when non-nil, records phase spans and hot-path counters for
	// the run (see internal/telemetry). It is ignored by the memoization key,
	// so runs differing only in their recorder share one computation — and a
	// cache hit records nothing.
	Telemetry *telemetry.Recorder
	// Workers is the fault-simulation worker count threaded through every
	// pipeline stage (atpg, core, obs; 0 or 1 = sequential). The simulator's
	// deterministic merge makes results bit-identical for any value, so
	// Workers — like Telemetry — is not part of the memoization key.
	Workers int
	// Kernel selects the fsim gate-evaluation kernel threaded through every
	// pipeline stage (dense or slab; the zero value honors FSIM_KERNEL and
	// defaults to slab). Both kernels are bit-identical, so
	// Kernel — like Workers — is not part of the memoization key.
	Kernel fsim.Kernel
	// SlabLanes is the slab kernel's fault-group batch width W (0 = the
	// automatic width; ignored by the dense kernel). Like Workers it never
	// changes the outcome, so it is not part of the memoization key.
	SlabLanes int
	// Ctx, if non-nil, cancels the run: it is threaded through every
	// pipeline stage down to the fault simulator's worker pool, so a
	// cancelled or timed-out run stops claiming fault groups and RunPipeline
	// returns ctx.Err() promptly. Like Telemetry, Ctx is not part of the
	// memoization key — and since errors (including cancellations) evict
	// their memo entry, a later identical call recomputes instead of
	// inheriting the cancellation.
	Ctx context.Context
}

func (c Config) withDefaults() Config {
	if c.LG == 0 {
		c.LG = 2000
	}
	// Canonicalise the model name so the default, an explicit "stuck-at"
	// and an alias like "stuck" all share one memo entry and one store
	// identity. Unknown names pass through untouched and fail in
	// RunPipeline, where the error can be reported.
	if m, err := fault.ModelByName(c.FaultModel); err == nil {
		c.FaultModel = m.Name()
	}
	return c
}

// presetSequence returns the known deterministic sequence for circuits that
// do not use the atpg substitute: the paper's Table 1 sequence for s27 and
// the analytically constructed sequence for the random-resistant cmphard.
func presetSequence(c *circuit.Circuit, cfg Config) *sim.Sequence {
	switch c.Name {
	case "s27":
		seq, err := sim.ParseSequence(iscas.S27TestSequence)
		if err != nil {
			panic(err) // embedded constant; cannot fail
		}
		return seq
	case iscas.HardName:
		return iscas.HardSequence(cfg.Seed + 3)
	default:
		return nil
	}
}

// presetFor scales runtime-dominating parameters down for the two largest
// circuits, mirroring the paper's inputs (its s35932 sequence is only 150
// vectors long). Only fields the caller left at zero are touched.
func presetFor(name string, cfg Config) Config {
	switch name {
	case "s5378":
		if cfg.ATPGRandomLen == 0 {
			cfg.ATPGRandomLen = 1024
		}
		// Restoration-based compaction re-simulates the whole fault list per
		// candidate deletion, which dominates runtime at this size without
		// changing any conclusion.
		cfg.ATPGNoCompaction = true
	case "s35932":
		if cfg.ATPGRandomLen == 0 {
			cfg.ATPGRandomLen = 320
		}
		if cfg.LG == 0 {
			// The paper's s35932 sequence is only 150 vectors; full 2000-cycle
			// windows would multiply the (gates × faults) simulation cost for
			// no additional insight.
			cfg.LG = 400
		}
		cfg.ATPGNoCompaction = true
		// The scalar PODEM searches are disproportionate at 16k gates and
		// the stragglers they would target barely move the det column.
		cfg.ATPGNoPodem = true
	}
	return cfg
}

// key is the memoization key.
type key struct {
	name string
	cfg  Config
}

// Run is the complete result of one circuit's pipeline.
type Run struct {
	Name    string
	Circuit *circuit.Circuit
	Config  Config
	// Init is the flip-flop initialisation used (X for the verbatim s27,
	// reset-to-0 for the synthetic suite).
	Init logic.V
	// T is the deterministic test sequence (for s27: the paper's Table 1
	// sequence; otherwise the atpg substitute).
	T *sim.Sequence
	// TotalFaults is the size of the collapsed fault universe.
	TotalFaults int
	// Targets are the faults detected by T, with their detection times.
	Targets  []fault.Fault
	DetTimes []int
	// Core is the weight-assignment selection result (Ω before reverse-order
	// simulation lives in Core.Omega).
	Core *core.Result
	// Compacted is Ω after reverse-order simulation (Section 4.3).
	Compacted []core.Assignment
	// Stats is the Table 6 accounting of Compacted.
	Stats core.HardwareStats
	// Metrics is the per-phase telemetry of the run, as recorded by
	// Config.Telemetry (nil when no recorder was installed). When a recorder
	// is shared across runs the totals are cumulative across them.
	Metrics []telemetry.PhaseStats
}

// entry is one memoization slot: a single-flight computation whose leader
// closes done after publishing r/err. Unlike a sync.Once, a failed flight is
// evicted from the cache (see RunCircuit), so a transient error — an I/O
// hiccup in the load, a cancelled context — never poisons its (circuit,
// configuration) key for the life of the process.
type entry struct {
	done chan struct{} // closed once r/err are published
	r    *Run
	err  error
}

var (
	cacheMu sync.Mutex
	cache   = map[key]*entry{}
)

// loadCircuit indirects iscas.Load so tests can inject transient failures.
var loadCircuit = iscas.Load

// InitFor returns the flip-flop initialisation for a suite circuit: unknown
// (X) for the verbatim s27 as in the raw benchmark, reset-to-0 for the
// synthetic circuits (see DESIGN.md).
func InitFor(name string) logic.V {
	if p, ok := iscas.LookupProfile(name); ok && !p.Synthetic {
		return logic.X
	}
	return logic.Zero
}

// CanonicalConfig returns the exact configuration RunCircuit executes for a
// named circuit: per-circuit presets applied and defaults filled. Cache
// layers (the in-process memo here, the persistent store behind `wbist
// serve`) key on this canonical form so that a defaulted and an explicit
// spelling of the same run share one computation and one artifact set.
func CanonicalConfig(name string, cfg Config) Config {
	return presetFor(name, cfg).withDefaults()
}

// RunCircuit executes (or returns the memoized) pipeline for a suite circuit.
// Concurrent callers with the same (circuit, configuration) share a single
// computation: the first one runs the pipeline, the rest block on it and
// receive the same *Run. A failed computation is evicted before its error is
// reported, so the next caller with the same key retries instead of
// replaying a stale (possibly transient) failure forever.
func RunCircuit(name string, cfg Config) (*Run, error) {
	cfg = CanonicalConfig(name, cfg)
	k := key{name: name, cfg: cfg}
	// Neither the recorder, the worker count, the kernel (and its slab lane
	// width) nor the context is part of the identity of a run: none of them
	// changes any result bit. FaultModel, by contrast, stays in the key —
	// each model has its own fault universe and hence its own results.
	k.cfg.Telemetry = nil
	k.cfg.Workers = 0
	k.cfg.Kernel = 0
	k.cfg.SlabLanes = 0
	k.cfg.Ctx = nil
	cacheMu.Lock()
	e, ok := cache[k]
	if !ok {
		e = &entry{done: make(chan struct{})}
		cache[k] = e
	}
	cacheMu.Unlock()

	if ok {
		// Joiner: wait for the leader's flight (they share its outcome,
		// error included — a concurrent joiner is part of the failed flight,
		// not a retry).
		<-e.done
		return e.r, e.err
	}

	// Leader: compute, publish, and on error evict the entry so a later
	// identical call recomputes.
	e.r, e.err = computeRun(name, cfg)
	if e.err != nil {
		cacheMu.Lock()
		if cache[k] == e {
			delete(cache, k)
		}
		cacheMu.Unlock()
	}
	close(e.done)
	return e.r, e.err
}

func computeRun(name string, cfg Config) (*Run, error) {
	c, err := loadCircuit(name)
	if err != nil {
		return nil, err
	}
	r, err := RunPipeline(c, InitFor(name), cfg)
	if err != nil {
		return nil, err
	}
	r.Name = name
	return r, nil
}

// RunPipeline executes the pipeline on an arbitrary circuit. When cfg.Ctx is
// cancelled the stages unwind at their next fault-group boundary and the
// pipeline returns ctx.Err().
func RunPipeline(c *circuit.Circuit, init logic.V, cfg Config) (*Run, error) {
	cfg = cfg.withDefaults()
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}
	model, err := fault.ModelByName(cfg.FaultModel)
	if err != nil {
		return nil, err
	}
	r := &Run{Name: c.Name, Circuit: c, Config: cfg, Init: init}
	pipe := cfg.Telemetry.StartSpan("pipeline")

	// Deterministic sequence: the paper's own sequence for s27, the
	// analytically constructed sequence for the random-resistant cmphard,
	// the atpg substitute for everything else.
	if preset := presetSequence(c, cfg); preset != nil {
		sp := pipe.Child("preset-sim")
		r.T = preset
		faults := fault.CollapsedUniverseFor(c, model)
		r.TotalFaults = len(faults)
		out := fsim.Run(c, preset, faults, fsim.Options{Init: init, Workers: cfg.Workers, Kernel: cfg.Kernel, SlabLanes: cfg.SlabLanes, Ctx: cfg.Ctx})
		for i := range faults {
			if out.Detected[i] {
				r.Targets = append(r.Targets, faults[i])
				r.DetTimes = append(r.DetTimes, out.DetTime[i])
			}
		}
		sp.End()
	} else {
		ar := atpg.Generate(c, atpg.Options{
			Seed:                 cfg.Seed + 1,
			Init:                 init,
			Model:                model,
			RandomLen:            cfg.ATPGRandomLen,
			NoCompaction:         cfg.ATPGNoCompaction,
			NoDeterministicPhase: cfg.ATPGNoPodem,
			Workers:              cfg.Workers,
			Kernel:               cfg.Kernel,
			SlabLanes:            cfg.SlabLanes,
			Span:                 pipe,
			Ctx:                  cfg.Ctx,
		})
		r.T = ar.Seq
		r.TotalFaults = len(ar.Faults)
		for i := range ar.Faults {
			if ar.Detected[i] {
				r.Targets = append(r.Targets, ar.Faults[i])
				r.DetTimes = append(r.DetTimes, ar.DetTime[i])
			}
		}
	}

	// The sequence phase has no error return; surface a cancellation that
	// truncated it before the partial T feeds the selection.
	if err := ctxErr(cfg.Ctx); err != nil {
		return nil, err
	}

	cr, err := core.Run(c, r.T, r.Targets, r.DetTimes, core.Options{
		LG:                cfg.LG,
		Init:              init,
		Seed:              cfg.Seed + 2,
		RandomWindows:     cfg.RandomWindows,
		NoSampleFirst:     cfg.NoSampleFirst,
		NoForceFullLength: cfg.NoForceFullLength,
		NoMatchOrdering:   cfg.NoMatchOrdering,
		Workers:           cfg.Workers,
		Kernel:            cfg.Kernel,
		SlabLanes:         cfg.SlabLanes,
		Span:              pipe,
		Ctx:               cfg.Ctx,
	})
	if err != nil {
		return nil, err
	}
	r.Core = cr
	sp := pipe.Child("reverse-order")
	r.Compacted = core.ReverseOrderCompact(cr)
	sp.End()
	sp = pipe.Child("accounting")
	r.Stats = core.Accounting(r.Compacted)
	sp.End()
	pipe.End()
	telemetry.SetGauge("fault_coverage", cr.Coverage())
	r.Metrics = cfg.Telemetry.Phases()
	return r, nil
}

// Table6Row renders a run into the columns of the paper's Table 6:
// circuit, |T|, #detected, #seq, #subs, max len, #FSMs, #FSM outputs.
type Table6Row struct {
	Circuit  string
	Len      int
	Det      int
	Seq      int
	Subs     int
	MaxLen   int
	FSMs     int
	Outputs  int
	Coverage float64 // fraction of targets covered by Ω (1.0 expected)
}

// Table6 computes the row for a run.
func Table6(r *Run) Table6Row {
	return Table6Row{
		Circuit:  r.Name,
		Len:      r.T.Len(),
		Det:      len(r.Targets),
		Seq:      r.Stats.NumSeqs,
		Subs:     r.Stats.NumSubs,
		MaxLen:   r.Stats.MaxLen,
		FSMs:     r.Stats.NumFSMs,
		Outputs:  r.Stats.NumOutputs,
		Coverage: r.Core.Coverage(),
	}
}

// ObsExperiment runs the Tables 7-16 experiment for a run.
func ObsExperiment(r *Run) *obs.Result {
	return obs.Experiment(r.Core)
}

// SynthesizeGenerator builds the Figure 1 hardware for a run's compacted Ω
// (including the leading LFSR windows when the run used them) and reports
// its cost.
func SynthesizeGenerator(r *Run) (*wgen.Generator, error) {
	if len(r.Compacted) == 0 {
		return nil, fmt.Errorf("expt: run %s has no weight assignments", r.Name)
	}
	return wgen.SynthesizeSchedule(r.Name+"_gen", r.Config.RandomWindows, r.Compacted, r.Config.LG)
}

// ClearCache drops all memoized runs (tests use this to force fresh runs).
func ClearCache() {
	cacheMu.Lock()
	cache = map[key]*entry{}
	cacheMu.Unlock()
}

// ctxErr returns the cancellation error of a (possibly nil) context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}
