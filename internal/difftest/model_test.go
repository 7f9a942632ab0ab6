package difftest

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/rcg"
	"repro/internal/sim"
)

// The cross-model differential sweeps: the transition and bridging fault
// models must agree with the independent scalar oracle (internal/ref) and be
// bit-identical across lane widths and worker counts, exactly like stuck-at.
// Each sweep walks random rcg triples and runs the expensive slab axes on
// every third triple, so every axis is exercised many times without
// multiplying the runtime by the product of all axes.

// testModelRandom is the shared sweep body: triples random (circuit, fault
// set, sequence) triples under model m, CheckTriple on every one (ref vs
// one lane vs the automatic width, Workers pinned to the {1, 4} axis, split
// continuation), with CheckSlab on every third triple.
func testModelRandom(t *testing.T, m fault.Model, seedBase uint64, triples int) {
	t.Helper()
	if testing.Short() {
		triples = triples / 8
	}
	var multiGroup, saved, stopped, split, slab, repeated int
	for i := 0; i < triples; i++ {
		seed := uint64(i) + seedBase
		c := rcg.FromSeed(seed)
		rng := randutil.New(seed ^ 0xd1f7e57).Split()
		seq := RandomStimulus(rng, c.NumInputs())
		all := fault.CollapsedUniverseFor(c, m)
		if len(all) == 0 {
			// Tiny circuits can have no bridgeable pair; the emptiness itself
			// is covered by the fault package's unit tests.
			continue
		}
		faults := SampleFaults(rng, all)
		cfg := ConfigFromSeed(rng.Uint64(), seq.Len())
		cfg.Workers = []int{1, 4}[i%2]
		if len(faults) > fsim.GroupSize {
			multiGroup++
		}
		if cfg.SaveStates {
			saved++
		}
		if cfg.StopTime > 0 {
			stopped++
		}
		if splits(seq, faults, cfg) {
			split++
		}
		work, err := CheckTriple(c, seq, faults, cfg)
		if err != nil {
			t.Fatalf("%s triple %d: %v\n%s", m.Name(), i, err, Describe(c, seq, faults, cfg))
		}
		if work.RepeatExits > 0 {
			repeated++
		}
		if i%3 == 1 {
			slab++
			if _, err := CheckSlab(c, seq, faults, cfg); err != nil {
				t.Fatalf("%s triple %d (slab): %v\n%s", m.Name(), i, err, Describe(c, seq, faults, cfg))
			}
		}
	}
	if multiGroup == 0 || saved == 0 || stopped == 0 || split == 0 || slab == 0 || repeated == 0 {
		t.Fatalf("sweep too narrow: multiGroup=%d saveStates=%d stopTime=%d split=%d slab=%d repeatExit=%d",
			multiGroup, saved, stopped, split, slab, repeated)
	}
	t.Logf("%s: %d triples: %d multi-group, %d state compare, %d truncated, %d split, %d repeat exit; %d slab checks",
		m.Name(), triples, multiGroup, saved, stopped, split, repeated, slab)
}

// TestDifferentialTransitionRandom oracle-locks the launch-on-capture
// transition model on 500 random triples.
func TestDifferentialTransitionRandom(t *testing.T) {
	testModelRandom(t, fault.Transition{}, 0x7a2a51, 500)
}

// TestDifferentialBridgeRandom oracle-locks the 2-node bridging model on 500
// random triples (triples whose circuit has no bridgeable pair are skipped).
func TestDifferentialBridgeRandom(t *testing.T) {
	testModelRandom(t, fault.Bridging{}, 0xb41d6e, 500)
}

// TestDifferentialModelSuiteCircuits runs the full cross-model check stack —
// ref vs one lane vs the automatic width (CheckTriple) and the slab lane,
// worker, reuse and continuation axes (CheckSlab) — on the experiment
// circuits with each model's full collapsed universe under both
// initialisations.
func TestDifferentialModelSuiteCircuits(t *testing.T) {
	names := []string{"s27", "s298", "s344"}
	if testing.Short() {
		names = names[:2]
	}
	models := []fault.Model{fault.Transition{}, fault.Bridging{}}
	for _, name := range names {
		c := iscas.MustLoad(name)
		for _, m := range models {
			faults := fault.CollapsedUniverseFor(c, m)
			if len(faults) == 0 {
				t.Fatalf("%s: empty %s universe", name, m.Name())
			}
			rng := randutil.New(0x30de1 ^ uint64(len(name)*7+len(m.Name())))
			for k, cfg := range []Config{
				{Init: logic.Zero, Workers: 4, SaveStates: true, SplitContinuation: true},
				{Init: logic.X, Workers: 1, StopTime: 9},
			} {
				seq := sim.RandomSequence(rng, c.NumInputs(), 24)
				if _, err := CheckTriple(c, seq, faults, cfg); err != nil {
					t.Fatalf("%s %s (case %d): %v\n%s", name, m.Name(), k, err, Describe(c, seq, faults, cfg))
				}
				if _, err := CheckSlab(c, seq, faults, cfg); err != nil {
					t.Fatalf("%s %s (case %d, slab): %v\n%s", name, m.Name(), k, err, Describe(c, seq, faults, cfg))
				}
			}
		}
	}
}

// TestDifferentialModelTraceDeterminism pins the detection-provenance trace
// contract for the new models: canonical trace bytes identical at one lane
// and at the automatic width and across Workers ∈ {1, 4, 8}, and events
// equal to the ref oracle's detections.
func TestDifferentialModelTraceDeterminism(t *testing.T) {
	c := iscas.MustLoad("s298")
	for _, m := range []fault.Model{fault.Transition{}, fault.Bridging{}} {
		faults := fault.CollapsedUniverseFor(c, m)
		rng := randutil.New(0x7eace5 ^ uint64(len(m.Name())))
		seq := sim.RandomSequence(rng, c.NumInputs(), 20)
		cfg := Config{Init: logic.Zero}
		if err := CheckTrace(c, seq, faults, cfg); err != nil {
			t.Fatalf("%s: %v\n%s", m.Name(), err, Describe(c, seq, faults, cfg))
		}
	}
}

// modelStimulus decodes the (stimulus, fault sample, config) part of a fuzz
// input for a fixed model — the model is hardcoded per fuzz target so the
// committed corpora stay valid independently of model-list evolution.
func modelCheck(t *testing.T, m fault.Model, circSeed, stimSeed, cfgSeed uint64) {
	t.Helper()
	c := rcg.FromSeed(circSeed)
	rng := randutil.New(stimSeed)
	seq := RandomStimulus(rng, c.NumInputs())
	all := fault.CollapsedUniverseFor(c, m)
	if len(all) == 0 {
		return
	}
	faults := SampleFaults(rng, all)
	cfg := ConfigFromSeed(cfgSeed, seq.Len())
	if _, err := CheckTriple(c, seq, faults, cfg); err != nil {
		t.Fatalf("%s circSeed=%d stimSeed=%d cfgSeed=%d: %v\n%s",
			m.Name(), circSeed, stimSeed, cfgSeed, err, Describe(c, seq, faults, cfg))
	}
}

// FuzzTransitionVsRef is the transition-model differential target: for an
// arbitrary decoded triple carrying launch-on-capture transition faults, the
// naive scalar oracle and the bit-parallel simulator (one lane and the
// automatic width, Workers axis, split continuation) must agree bit for bit. The launch-split corpus
// entries split their sequence right after a launch, where a continuation
// that dropped the launch history would diverge.
func FuzzTransitionVsRef(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3))
	f.Add(uint64(42), uint64(0), uint64(7))
	f.Add(uint64(9001), uint64(17), uint64(5))
	f.Fuzz(func(t *testing.T, circSeed, stimSeed, cfgSeed uint64) {
		modelCheck(t, fault.Transition{}, circSeed, stimSeed, cfgSeed)
	})
}

// FuzzBridgeVsRef is the bridging-model differential target: for an
// arbitrary decoded triple carrying 2-node wired-AND/wired-OR bridge faults,
// the naive scalar oracle and the bit-parallel simulator must agree bit for
// bit (the slab kernel's two-walk batches are on this path).
func FuzzBridgeVsRef(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3))
	f.Add(uint64(42), uint64(0), uint64(7))
	f.Add(uint64(9001), uint64(17), uint64(5))
	f.Fuzz(func(t *testing.T, circSeed, stimSeed, cfgSeed uint64) {
		modelCheck(t, fault.Bridging{}, circSeed, stimSeed, cfgSeed)
	})
}
