package difftest

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/check"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/rcg"
	"repro/internal/sim"
	"repro/internal/verilog"
	"repro/internal/wgen"
)

// FuzzRefVsFsim is the main differential target: an arbitrary (circuit,
// fault set, sequence, run configuration) quadruple, decoded from three
// seeds, must produce bit-identical outcomes from the naive oracle and the
// bit-parallel simulator — sequentially, with Workers>1, and as a split
// continuation replay.
func FuzzRefVsFsim(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3))
	f.Add(uint64(42), uint64(0), uint64(7))
	f.Add(uint64(12345), uint64(999), uint64(1))
	f.Fuzz(func(t *testing.T, circSeed, stimSeed, cfgSeed uint64) {
		c := rcg.FromSeed(circSeed)
		rng := randutil.New(stimSeed)
		seq := RandomStimulus(rng, c.NumInputs())
		faults := SampleFaults(rng, fault.CollapsedUniverse(c))
		cfg := ConfigFromSeed(cfgSeed, seq.Len())
		if _, err := CheckTriple(c, seq, faults, cfg); err != nil {
			t.Fatalf("circSeed=%d stimSeed=%d cfgSeed=%d: %v\n%s",
				circSeed, stimSeed, cfgSeed, err, Describe(c, seq, faults, cfg))
		}
	})
}

// FuzzSlabVsDense is the slab-kernel differential target: for an arbitrary
// decoded triple, the multi-group slab kernel must reproduce the dense
// kernel bit for bit — Detected, DetTime, Lines, FinalStates and launch
// history — and its work counters across Workers ∈ {1, 4, 8} × SlabLanes ∈ {1, 2, 8} plus the
// automatic width, across re-strided and dense-interleaved runs on one
// reused simulator, and through split InitialStates continuation
// replays. Every input is checked under each fault model, the fault sample
// drawn from that model's collapsed universe with the same stimulus seed
// (so the stuck-at half decodes exactly as before models were added).
func FuzzSlabVsDense(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3))
	f.Add(uint64(42), uint64(0), uint64(7))
	f.Add(uint64(9001), uint64(17), uint64(5))
	f.Fuzz(func(t *testing.T, circSeed, stimSeed, cfgSeed uint64) {
		c := rcg.FromSeed(circSeed)
		for _, m := range []fault.Model{fault.StuckAt{}, fault.Transition{}, fault.Bridging{}} {
			rng := randutil.New(stimSeed)
			seq := RandomStimulus(rng, c.NumInputs())
			all := fault.CollapsedUniverseFor(c, m)
			if len(all) == 0 {
				continue
			}
			faults := SampleFaults(rng, all)
			cfg := ConfigFromSeed(cfgSeed, seq.Len())
			if _, err := CheckSlab(c, seq, faults, cfg); err != nil {
				t.Fatalf("%s circSeed=%d stimSeed=%d cfgSeed=%d: %v\n%s",
					m.Name(), circSeed, stimSeed, cfgSeed, err, Describe(c, seq, faults, cfg))
			}
		}
	})
}

// FuzzRedundantVsRef checks podem.Prove's redundancy proofs against the
// oracle: on an arbitrary rcg circuit, no fault proven redundant in one
// frame may be detected by an arbitrary stimulus, from either initial
// state (see CheckRedundant).
func FuzzRedundantVsRef(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(42), uint64(7))
	f.Fuzz(func(t *testing.T, circSeed, stimSeed uint64) {
		c := rcg.FromSeed(circSeed)
		seq := RandomStimulus(randutil.New(stimSeed), c.NumInputs())
		if err := CheckRedundant(c, seq); err != nil {
			t.Fatalf("circSeed=%d stimSeed=%d: %v\n%s", circSeed, stimSeed, err, benchText(c))
		}
	})
}

// FuzzFaultFreeVsSim cross-checks fsim's fault-free slot against the scalar
// logic simulator on random circuits and stimuli (including X inputs and X
// initialisation).
func FuzzFaultFreeVsSim(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(77), uint64(0))
	f.Fuzz(func(t *testing.T, circSeed, stimSeed uint64) {
		c := rcg.FromSeed(circSeed)
		rng := randutil.New(stimSeed)
		seq := RandomStimulus(rng, c.NumInputs())
		init := []logic.V{logic.Zero, logic.One, logic.X}[rng.Intn(3)]
		faults := SampleFaults(rng, fault.CollapsedUniverse(c))
		if err := CheckFaultFree(c, seq, faults, init); err != nil {
			t.Fatalf("circSeed=%d stimSeed=%d init=%v: %v\nsequence:\n%s\nnetlist:\n%s",
				circSeed, stimSeed, init, err, seq, benchText(c))
		}
	})
}

// decodeSubs derives 1-4 random binary subsequences of length 1-6 from an
// RNG; equalLen forces a common length (the SynthesizeFSM contract).
func decodeSubs(rng *randutil.RNG, n int, equalLen bool) []string {
	l := 1 + rng.Intn(6)
	subs := make([]string, n)
	for k := range subs {
		if !equalLen {
			l = 1 + rng.Intn(6)
		}
		var sb strings.Builder
		for j := 0; j < l; j++ {
			if rng.Bool() {
				sb.WriteByte('1')
			} else {
				sb.WriteByte('0')
			}
		}
		subs[k] = sb.String()
	}
	return subs
}

// FuzzWgenVsExpansion checks the synthesized weight-generator hardware
// against the direct software expansion: a weight FSM must reproduce α^r on
// every output, and a full Figure 1 generator must reproduce every
// assignment's GenSequence window; the synthesized netlist must also survive
// a .bench round trip behaviourally intact (via check.Equivalent).
func FuzzWgenVsExpansion(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(31), uint64(8))
	f.Fuzz(func(t *testing.T, subsSeed, genSeed uint64) {
		rng := randutil.New(subsSeed)
		subs := decodeSubs(rng, 1+rng.Intn(4), true)
		c, fsm, err := wgen.SynthesizeFSM("fuzz", subs)
		if err != nil {
			t.Fatalf("SynthesizeFSM(%q): %v", subs, err)
		}
		s := sim.New(c, logic.Zero)
		total := 3*fsm.Len + 2
		for u := 0; u < total; u++ {
			out := s.Step([]logic.V{logic.One})
			for k, alpha := range subs {
				if want := logic.FromBit(alpha[u%len(alpha)] == '1'); out[k] != want {
					t.Fatalf("FSM(%q) t=%d output %d: hardware %v, α^r %v", subs, u, k, out[k], want)
				}
			}
		}
		checkRoundTrip(t, c)

		// Full generator: 1-3 assignments over 1-4 inputs, window length 2-12.
		grng := randutil.New(genSeed)
		numIn := 1 + grng.Intn(4)
		omega := make([]core.Assignment, 1+grng.Intn(3))
		for j := range omega {
			omega[j] = core.Assignment{Subs: decodeSubs(grng, numIn, false)}
		}
		lg := 2 + grng.Intn(11)
		g, err := wgen.Synthesize("fuzzgen", omega, lg)
		if err != nil {
			t.Fatalf("Synthesize(%v, lg=%d): %v", omega, lg, err)
		}
		gs := sim.New(g.Circuit, logic.Zero)
		for j, a := range omega {
			want := a.GenSequence(lg)
			for u := 0; u < lg; u++ {
				out := gs.Step([]logic.V{logic.One})
				for i := range a.Subs {
					if out[i] != want.At(u, i) {
						t.Fatalf("generator %v lg=%d: window %d t=%d input %d: hardware %v, software %v",
							omega, lg, j, u, i, out[i], want.At(u, i))
					}
				}
			}
		}
	})
}

// FuzzBenchRoundTrip writes a random circuit as .bench text, parses it back
// and demands behavioural equivalence and identical statistics; the Verilog
// emitter must accept the same netlist.
func FuzzBenchRoundTrip(f *testing.F) {
	f.Add(uint64(1))
	f.Add(uint64(7))
	f.Add(uint64(1234567))
	f.Fuzz(func(t *testing.T, circSeed uint64) {
		c := rcg.FromSeed(circSeed)
		checkRoundTrip(t, c)
		var vb strings.Builder
		if err := verilog.Write(&vb, c); err != nil {
			t.Fatalf("circSeed=%d: verilog emit: %v\nnetlist:\n%s", circSeed, err, benchText(c))
		}
		if !strings.Contains(vb.String(), "module ") {
			t.Fatalf("circSeed=%d: verilog output lacks a module header", circSeed)
		}
	})
}

// checkRoundTrip parses the .bench rendering of c back and checks stats and
// behavioural equivalence under common random stimulus.
func checkRoundTrip(t *testing.T, c *circuit.Circuit) {
	t.Helper()
	text := benchText(c)
	r, err := bench.Parse(c.Name, strings.NewReader(text))
	if err != nil {
		t.Fatalf("round trip parse: %v\nbench:\n%s", err, text)
	}
	if r.Stats() != c.Stats() {
		t.Fatalf("round trip stats: %v vs %v\nbench:\n%s", r.Stats(), c.Stats(), text)
	}
	if err := check.Equivalent(c, r, check.Options{Sequences: 2, Length: 64, Init: logic.Zero}); err != nil {
		t.Fatalf("round trip behaviour: %v\nbench:\n%s", err, text)
	}
}
