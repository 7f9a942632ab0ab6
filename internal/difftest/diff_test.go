package difftest

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/rcg"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestDifferentialRefVsFsim is the acceptance gate of the differential
// subsystem: over ≥1000 random (circuit, fault set, sequence) triples —
// including multi-group fault lists, Workers>1 parallel runs, SaveStates
// comparison, StopTime truncation and split continuation replays — ref and
// fsim must agree bit for bit on Detected, DetTime and final states.
func TestDifferentialRefVsFsim(t *testing.T) {
	triples := 1000
	if testing.Short() {
		triples = 150
	}
	var multiGroup, parallel, saved, split, repeated int
	for i := 0; i < triples; i++ {
		seed := uint64(i)
		c := rcg.FromSeed(seed)
		rng := randutil.New(seed ^ 0xd1f7e57).Split()
		seq := RandomStimulus(rng, c.NumInputs())
		faults := SampleFaults(rng, fault.CollapsedUniverse(c))
		cfg := ConfigFromSeed(rng.Uint64(), seq.Len())
		if len(faults) > fsim.GroupSize {
			multiGroup++
		}
		if cfg.Workers > 1 {
			parallel++
		}
		if cfg.SaveStates {
			saved++
		}
		if cfg.SplitContinuation && cfg.StopTime == 0 && seq.Len() >= 2 {
			split++
		}
		before := repeatExits()
		if err := CheckTriple(c, seq, faults, cfg); err != nil {
			t.Fatalf("triple %d: %v\n%s", i, err, Describe(c, seq, faults, cfg))
		}
		if repeatExits() > before {
			repeated++
		}
	}
	// The sweep must actually exercise the interesting axes, not just tiny
	// single-group sequential runs.
	if multiGroup == 0 || parallel == 0 || saved == 0 || split == 0 || repeated == 0 {
		t.Fatalf("sweep too narrow: multiGroup=%d parallel=%d saveStates=%d split=%d repeatExit=%d",
			multiGroup, parallel, saved, split, repeated)
	}
	t.Logf("%d triples: %d multi-group, %d parallel, %d with state compare, %d split replays, %d with a repeat exit",
		triples, multiGroup, parallel, saved, split, repeated)
}

// TestDifferentialSuiteCircuits runs the oracle against fsim on the real
// experiment circuits (the exact s27 and two synthetic suite members), full
// collapsed fault universe, random binary stimulus, parallel workers.
func TestDifferentialSuiteCircuits(t *testing.T) {
	names := []string{"s27", "s298", "s344"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		c := iscas.MustLoad(name)
		rng := randutil.New(0xabcde ^ uint64(len(name)))
		faults := fault.CollapsedUniverse(c)
		for k, init := range []logic.V{logic.Zero, logic.X} {
			seq := sim.RandomSequence(rng, c.NumInputs(), 24)
			cfg := Config{Init: init, Workers: 4, SaveStates: true, SplitContinuation: true}
			if err := CheckTriple(c, seq, faults, cfg); err != nil {
				t.Fatalf("%s (init case %d): %v\n%s", name, k, err, Describe(c, seq, faults, cfg))
			}
		}
	}
}

// TestDifferentialDenseVsSlab is the acceptance gate of the slab kernel:
// over ≥1000 random triples, rotating over the stuck-at, transition and
// bridge models, the slab kernel must reproduce the dense kernel bit for
// bit — Detected, DetTime, Lines (ObserveLines axis), FinalStates and
// launch history (SaveStates axis) — across Workers ∈ {1, 4, 8} ×
// SlabLanes ∈ {1, 2, 8} plus the automatic width, including StopTime
// truncation, arena re-strides and dense interleavings on one reused
// simulator, and split InitialStates/TimeOffset continuation replays.
func TestDifferentialDenseVsSlab(t *testing.T) {
	triples := 1000
	if testing.Short() {
		triples = 150
	}
	models := []fault.Model{fault.StuckAt{}, fault.Transition{}, fault.Bridging{}}
	perModel := make([]int, len(models))
	var multiGroup, multiBatch, observed, saved, split, stopped, repeated int
	for i := 0; i < triples; i++ {
		seed := uint64(i) + 0x51ab5 // distinct circuits from the other sweeps
		c := rcg.FromSeed(seed)
		rng := randutil.New(seed ^ 0xd1f7e57).Split()
		seq := RandomStimulus(rng, c.NumInputs())
		all := fault.CollapsedUniverseFor(c, models[i%len(models)])
		if len(all) == 0 {
			continue // no bridgeable pair in a tiny circuit
		}
		perModel[i%len(models)]++
		faults := SampleFaults(rng, all)
		cfg := ConfigFromSeed(rng.Uint64(), seq.Len())
		if len(faults) > fsim.GroupSize {
			multiGroup++
		}
		if len(faults) > 2*fsim.GroupSize {
			multiBatch++ // more groups than the smallest tested W: real batching
		}
		if cfg.ObserveLines {
			observed++
		}
		if cfg.SaveStates {
			saved++
		}
		if cfg.SplitContinuation && cfg.StopTime == 0 && seq.Len() >= 2 {
			split++
		}
		if cfg.StopTime > 0 {
			stopped++
		}
		before := repeatExits()
		if err := CheckSlab(c, seq, faults, cfg); err != nil {
			t.Fatalf("triple %d: %v\n%s", i, err, Describe(c, seq, faults, cfg))
		}
		if repeatExits() > before {
			repeated++
		}
	}
	if multiGroup == 0 || multiBatch == 0 || observed == 0 || saved == 0 || split == 0 || stopped == 0 || repeated == 0 ||
		slices.Contains(perModel, 0) {
		t.Fatalf("sweep too narrow: multiGroup=%d multiBatch=%d observe=%d saveStates=%d split=%d stopTime=%d repeatExit=%d perModel=%v",
			multiGroup, multiBatch, observed, saved, split, stopped, repeated, perModel)
	}
	t.Logf("%d triples (%v per model): %d multi-group, %d multi-batch, %d with line observation, %d with state compare, %d split replays, %d truncated, %d with a repeat exit",
		triples, perModel, multiGroup, multiBatch, observed, saved, split, stopped, repeated)
}

// TestDifferentialSlabSuiteCircuits repeats the dense-vs-slab check on the
// real experiment circuits with the full collapsed fault universe and every
// differential axis on at once (the suites' fault universes span multiple
// groups, so every tested W produces genuine multi-lane batches).
func TestDifferentialSlabSuiteCircuits(t *testing.T) {
	names := []string{"s27", "s298", "s344"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		c := iscas.MustLoad(name)
		rng := randutil.New(0x51ab ^ uint64(len(name)))
		faults := fault.CollapsedUniverse(c)
		for k, init := range []logic.V{logic.Zero, logic.X} {
			seq := sim.RandomSequence(rng, c.NumInputs(), 24)
			cfg := Config{Init: init, SaveStates: true, SplitContinuation: true, ObserveLines: true}
			if err := CheckSlab(c, seq, faults, cfg); err != nil {
				t.Fatalf("%s (init case %d): %v\n%s", name, k, err, Describe(c, seq, faults, cfg))
			}
		}
	}
}

// TestDifferentialKernelsSuiteCircuits holds the two kernels bit-identical
// on the real experiment circuits under the transition and bridge models,
// with every differential axis on at once — line observation included,
// which the model sweeps leave to the random configurations — so the slab
// kernel's native model lanes meet full multi-group universes.
func TestDifferentialKernelsSuiteCircuits(t *testing.T) {
	names := []string{"s27", "s298", "s344"}
	if testing.Short() {
		names = names[:2]
	}
	for _, name := range names {
		c := iscas.MustLoad(name)
		for _, m := range []fault.Model{fault.Transition{}, fault.Bridging{}} {
			rng := randutil.New(0xeadbe ^ uint64(len(name)+len(m.Name())))
			faults := fault.CollapsedUniverseFor(c, m)
			for k, init := range []logic.V{logic.Zero, logic.X} {
				seq := sim.RandomSequence(rng, c.NumInputs(), 24)
				cfg := Config{Init: init, Workers: 4, SaveStates: true, SplitContinuation: true, ObserveLines: true}
				if err := CheckSlab(c, seq, faults, cfg); err != nil {
					t.Fatalf("%s %s (init case %d): %v\n%s", name, m.Name(), k, err, Describe(c, seq, faults, cfg))
				}
			}
		}
	}
}

// TestDifferentialTraceDeterminism is the acceptance gate of the
// detection-provenance trace: its canonical byte stream must be identical
// for Workers ∈ {1, 4, 8} and both kernels — on the real experiment circuits
// with the full collapsed fault universe, and across 100 random (circuit,
// fault set, sequence) triples.
func TestDifferentialTraceDeterminism(t *testing.T) {
	for _, name := range []string{"s27", "s298", "s344"} {
		c := iscas.MustLoad(name)
		rng := randutil.New(0x7eace ^ uint64(len(name)))
		faults := fault.CollapsedUniverse(c)
		for k, init := range []logic.V{logic.Zero, logic.X} {
			seq := sim.RandomSequence(rng, c.NumInputs(), 24)
			cfg := Config{Init: init}
			if err := CheckTrace(c, seq, faults, cfg); err != nil {
				t.Fatalf("%s (init case %d): %v\n%s", name, k, err, Describe(c, seq, faults, cfg))
			}
		}
	}
	triples := 100
	if testing.Short() {
		triples = 25
	}
	var multiGroup, stopped int
	for i := 0; i < triples; i++ {
		seed := uint64(i) + 0x7eace5 // distinct circuits from the other sweeps
		c := rcg.FromSeed(seed)
		rng := randutil.New(seed ^ 0xd1f7e57).Split()
		seq := RandomStimulus(rng, c.NumInputs())
		faults := SampleFaults(rng, fault.CollapsedUniverse(c))
		cfg := ConfigFromSeed(rng.Uint64(), seq.Len())
		if len(faults) > fsim.GroupSize {
			multiGroup++
		}
		if cfg.StopTime > 0 {
			stopped++
		}
		if err := CheckTrace(c, seq, faults, cfg); err != nil {
			t.Fatalf("triple %d: %v\n%s", i, err, Describe(c, seq, faults, cfg))
		}
	}
	if multiGroup == 0 || stopped == 0 {
		t.Fatalf("sweep too narrow: multiGroup=%d stopTime=%d", multiGroup, stopped)
	}
	t.Logf("%d triples: %d multi-group, %d truncated", triples, multiGroup, stopped)
}

// TestDifferentialFaultFreeVsSim checks fsim's fault-free machine (slot 0 of
// the OutputHook words) cycle for cycle against the scalar logic simulator.
func TestDifferentialFaultFreeVsSim(t *testing.T) {
	n := 300
	if testing.Short() {
		n = 60
	}
	for i := 0; i < n; i++ {
		seed := uint64(i) + 0x5eed
		c := rcg.FromSeed(seed)
		rng := randutil.New(seed).Split()
		seq := RandomStimulus(rng, c.NumInputs())
		init := []logic.V{logic.Zero, logic.One, logic.X}[rng.Intn(3)]
		if err := CheckFaultFree(c, seq, init); err != nil {
			t.Fatalf("seed %d: %v\nsequence:\n%s\nnetlist:\n%s", seed, err, seq, benchText(c))
		}
	}
}

// repeatExits reads the process-wide fsim.repeat_exits counter, so a sweep
// can tell which of its checks stopped some group at a repeat exit.
func repeatExits() int64 { return telemetry.Counters().Get(telemetry.CtrRepeatExits) }

// TestDescribe smoke-checks the failure-reproduction dump: it must carry the
// run configuration, the stimulus and a parseable netlist so a fuzz failure
// is self-contained.
func TestDescribe(t *testing.T) {
	c := rcg.FromSeed(9)
	rng := randutil.New(9)
	seq := RandomStimulus(rng, c.NumInputs())
	faults := SampleFaults(rng, fault.CollapsedUniverse(c))
	got := Describe(c, seq, faults, Config{Workers: 2})
	for _, want := range []string{"config:", "faults:", "sequence:", "netlist:", "INPUT("} {
		if !strings.Contains(got, want) {
			t.Fatalf("Describe output lacks %q:\n%s", want, got)
		}
	}
}
