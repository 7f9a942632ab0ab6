package fsim_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/ref"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

var allKernels = []fsim.Kernel{fsim.KernelDense, fsim.KernelSlab}

// periodicSequence is a weighted test sequence of length l (the paper's α^r
// on every input, Section 3): each input repeats its own random 1-3 bit
// subsequence, so the whole sequence has a period of at most 6.
func periodicSequence(rng *randutil.RNG, n, l int) *sim.Sequence {
	subs := make([]string, n)
	for i := range subs {
		bs := make([]byte, 1+rng.Intn(3))
		for j := range bs {
			bs[j] = '0' + byte(rng.Intn(2))
		}
		subs[i] = string(bs)
	}
	return core.Assignment{Subs: subs}.GenSequence(l)
}

func modelUniverse(t *testing.T, c *circuit.Circuit, model string) []fault.Fault {
	t.Helper()
	m, err := fault.ModelByName(model)
	if err != nil {
		t.Fatal(err)
	}
	return fault.CollapsedUniverseFor(c, m)
}

func numGroups(faults []fault.Fault) int64 {
	return int64((len(faults) + fsim.GroupSize - 1) / fsim.GroupSize)
}

// TestRepeatExitMatchesRef fault-simulates s298 under a periodic weighted
// sequence with every fault model, on every kernel at Workers 1 and 2. The
// machines settle into the sequence's period long before its end, so groups
// stop at a repeat exit (fewer vectors than groups × length), and the
// outcome must still equal the full-length one-fault-at-a-time oracle.
func TestRepeatExitMatchesRef(t *testing.T) {
	c := iscas.MustLoad("s298")
	seq := periodicSequence(randutil.New(3), c.NumInputs(), 300)
	for _, model := range fault.ModelNames() {
		faults := modelUniverse(t, c, model)
		want := ref.Run(c, seq, faults, ref.Options{Init: logic.Zero})
		for _, kernel := range allKernels {
			for _, workers := range []int{1, 2} {
				before := telemetry.Counters()
				got := fsim.Run(c, seq, faults, fsim.Options{Init: logic.Zero, Kernel: kernel, Workers: workers})
				d := telemetry.Counters().Sub(before)
				if err := difftest.CompareOutcomes(c, faults, want, got, false); err != nil {
					t.Errorf("%s/%v/Workers=%d: %v", model, kernel, workers, err)
				}
				if n := d.Get(telemetry.CtrRepeatExits); n == 0 {
					t.Errorf("%s/%v/Workers=%d: no repeat exit fired", model, kernel, workers)
				}
				if v, full := d.Get(telemetry.CtrVectors), numGroups(faults)*int64(seq.Len()); v >= full {
					t.Errorf("%s/%v/Workers=%d: %d vectors, want fewer than %d", model, kernel, workers, v, full)
				}
			}
		}
	}
}

// TestRepeatExitWatchesFaultFreeMachine pins that the exit compares the
// fault-free machine too. Under a constant enable, the faulty machine of
// EN s-a-0 sits in state 000 from the start while the fault-free 3-bit
// counter runs; Z = Q0·Q1·Q2 tells them apart only at count 7. A repeat
// exit that watched the faulty slot alone would stop at time unit 1.
func TestRepeatExitWatchesFaultFreeMachine(t *testing.T) {
	const netlist = `
INPUT(EN)
OUTPUT(Z)
Q0 = DFF(D0)
Q1 = DFF(D1)
Q2 = DFF(D2)
D0 = XOR(Q0, EN)
C0 = AND(Q0, EN)
D1 = XOR(Q1, C0)
C1 = AND(Q1, C0)
D2 = XOR(Q2, C1)
Z = AND(Q0, Q1, Q2)
`
	c, err := bench.Parse("counter", strings.NewReader(netlist))
	if err != nil {
		t.Fatal(err)
	}
	en, _ := c.Lookup("EN")
	faults := []fault.Fault{{Node: en, Pin: -1, Stuck: 0}}
	seq := core.Assignment{Subs: []string{"1"}}.GenSequence(20)
	for _, kernel := range allKernels {
		out := fsim.Run(c, seq, faults, fsim.Options{Init: logic.Zero, Kernel: kernel})
		if !out.Detected[0] || out.DetTime[0] != 7 {
			t.Errorf("%v: EN s-a-0 detected=%v at %d, want detected at 7", kernel, out.Detected[0], out.DetTime[0])
		}
	}
}

// TestRepeatExitIgnoresUndetectableFaults pins the kernel invariance of the
// exit point. E s-a-1 starts a counter that reaches no primary output: the
// fault can never be detected, yet both kernels inject it, and its faulty
// slot counts while the fault-free machine stands still. Every kernel must
// stop the group at time unit 1 all the same, where the fault-free state
// first repeats.
func TestRepeatExitIgnoresUndetectableFaults(t *testing.T) {
	const netlist = `
INPUT(EN)
OUTPUT(Z)
Z = BUFF(EN)
E = NOT(EN)
Q0 = DFF(D0)
Q1 = DFF(D1)
D0 = XOR(Q0, E)
C0 = AND(Q0, E)
D1 = XOR(Q1, C0)
`
	c, err := bench.Parse("dangling", strings.NewReader(netlist))
	if err != nil {
		t.Fatal(err)
	}
	e, _ := c.Lookup("E")
	faults := []fault.Fault{{Node: e, Pin: -1, Stuck: 1}}
	seq := core.Assignment{Subs: []string{"1"}}.GenSequence(20)
	for _, kernel := range allKernels {
		before := telemetry.Counters()
		fsim.Run(c, seq, faults, fsim.Options{Init: logic.Zero, Kernel: kernel})
		d := telemetry.Counters().Sub(before)
		if v, n := d.Get(telemetry.CtrVectors), d.Get(telemetry.CtrRepeatExits); v != 1 || n != 1 {
			t.Errorf("%v: %d vectors and %d repeat exits, want 1 and 1", kernel, v, n)
		}
	}
}

// TestRepeatExitNeedsWholeSequence checks that SaveStates, ObserveLines and
// OutputHook each keep every group simulating the whole periodic sequence
// (a saved state, an internal-line record and a hook all need the tail the
// exit would skip), and that the detections equal those of a run that
// exits early.
func TestRepeatExitNeedsWholeSequence(t *testing.T) {
	c := iscas.MustLoad("s298")
	seq := periodicSequence(randutil.New(3), c.NumInputs(), 300)
	faults := modelUniverse(t, c, "stuck-at")
	full := numGroups(faults) * int64(seq.Len())
	cases := map[string]fsim.Options{
		"SaveStates":   {SaveStates: true},
		"ObserveLines": {ObserveLines: true},
		"OutputHook":   {OutputHook: func(lo, hi, u int, po []logic.W) {}},
	}
	for _, kernel := range allKernels {
		want := fsim.Run(c, seq, faults, fsim.Options{Init: logic.Zero, Kernel: kernel})
		for name, opts := range cases {
			opts.Init, opts.Kernel = logic.Zero, kernel
			before := telemetry.Counters()
			got := fsim.Run(c, seq, faults, opts)
			d := telemetry.Counters().Sub(before)
			if v := d.Get(telemetry.CtrVectors); v != full {
				t.Errorf("%s/%v: %d vectors, want the whole sequence (%d)", name, kernel, v, full)
			}
			if n := d.Get(telemetry.CtrRepeatExits); n != 0 {
				t.Errorf("%s/%v: %d repeat exits, want none", name, kernel, n)
			}
			if !reflect.DeepEqual(got.Detected, want.Detected) || !reflect.DeepEqual(got.DetTime, want.DetTime) {
				t.Errorf("%s/%v: detections differ from the run without it", name, kernel)
			}
		}
	}
}

// TestEarlyExitCountersKernelInvariant runs s298 without SaveStates and
// requires the slab kernel to report exactly dense's work counters: the
// same vectors, group passes, dropped faults, repeat exits and
// dense-equivalent gate evaluations. Two cases
// stop groups early:
//   - a random sequence against the stuck-at faults it detects (as the
//     pipeline does with its targets): every group stops at its last
//     detection;
//   - a periodic weighted sequence against the whole fault universe: groups
//     keeping undetected faults stop at a repeat exit.
//
// On the slab kernel the counters are kept per fault group, so a group that
// has finished stops counting while the rest of its batch runs on, and the
// next repack drops the lane that held it.
func TestEarlyExitCountersKernelInvariant(t *testing.T) {
	checkEarlyExitKernelInvariant(t, "stuck-at")
}

// TestEarlyExitCountersPerModel repeats the early-exit kernel comparison of
// TestEarlyExitCountersKernelInvariant for every other fault model, so the
// transition and bridge fault lists also stop each group at the same vector
// on every kernel.
func TestEarlyExitCountersPerModel(t *testing.T) {
	for _, name := range fault.ModelNames() {
		if name != "stuck-at" {
			checkEarlyExitKernelInvariant(t, name)
		}
	}
}

func checkEarlyExitKernelInvariant(t *testing.T, model string) {
	t.Helper()
	c := iscas.MustLoad("s298")
	universe := modelUniverse(t, c, model)
	random := sim.RandomSequence(randutil.New(7), c.NumInputs(), 200)
	var detected []fault.Fault
	for i, det := range fsim.Run(c, random, universe, fsim.Options{Init: logic.Zero, Kernel: fsim.KernelDense}).Detected {
		if det {
			detected = append(detected, universe[i])
		}
	}
	checkKernelWork(t, model+"/random", c, random, detected, false)
	periodic := periodicSequence(randutil.New(3), c.NumInputs(), 200)
	checkKernelWork(t, model+"/periodic", c, periodic, universe, true)
}

// checkKernelWork requires every kernel to report dense's vectors, group
// passes, dropped faults, repeat exits and gate evaluations, and
// the dense run to stop some group early (by a repeat exit when repeat is
// set) so that the comparison means something.
func checkKernelWork(t *testing.T, name string, c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, repeat bool) {
	t.Helper()
	type work struct{ vectors, passes, dropped, repeats, evals int64 }
	var dense work
	for _, kernel := range allKernels {
		before := telemetry.Counters()
		fsim.Run(c, seq, faults, fsim.Options{Init: logic.Zero, Kernel: kernel})
		d := telemetry.Counters().Sub(before)
		got := work{
			vectors: d.Get(telemetry.CtrVectors),
			passes:  d.Get(telemetry.CtrGroupPasses),
			dropped: d.Get(telemetry.CtrFaultsDropped),
			repeats: d.Get(telemetry.CtrRepeatExits),
			evals:   d.Get(telemetry.CtrGateEvals),
		}
		if kernel == fsim.KernelDense {
			dense = got
			if got.vectors >= got.passes*int64(seq.Len()) {
				t.Errorf("%s: no group exited early (%d vectors, %d passes)", name, got.vectors, got.passes)
			}
			if repeat && got.repeats == 0 {
				t.Errorf("%s: no repeat exit fired", name)
			}
			continue
		}
		if got != dense {
			t.Errorf("%s/%v: counters %+v, dense %+v", name, kernel, got, dense)
		}
	}
}

// TestPackedLanesPerModel pins live-fault packing under every fault model
// at Workers=2, where the automatic width splits each fault universe into
// at least two batches: once detections thin the lanes out, the slab kernel
// repacks the live faults into fewer lanes. Two cases run per model:
//   - a periodic weighted sequence over the whole universe, chosen per
//     model so that some group takes its repeat exit against a checkpoint
//     taken before a repack moved its faults: a repack that left the
//     checkpoint's flip-flop or launch-history words behind moves that
//     group's exit point and with it fsim.vectors;
//   - the second half of a random sequence on s344 continued from the
//     first half's saved states (InitialStates), so the continued
//     flip-flop words and launch histories are what the repack moves.
//
// In both, the slab outcome must equal dense's and so must every
// dense-equivalent counter (checkKernelWork's), while fsim.slab_lane_cycles
// must fall below dense's lane-cycles, its vector count: the test fails if
// packing never fires.
func TestPackedLanesPerModel(t *testing.T) {
	periodic := map[string]struct {
		circuit string
		seed    uint64
	}{"stuck-at": {"s386", 3}, "transition": {"s820", 1}, "bridge": {"s820", 7}}
	s344 := iscas.MustLoad("s344")
	random := sim.RandomSequence(randutil.New(8), s344.NumInputs(), 160)
	half := random.Len() / 2
	for _, model := range fault.ModelNames() {
		p := periodic[model]
		c := iscas.MustLoad(p.circuit)
		seq := periodicSequence(randutil.New(p.seed), c.NumInputs(), 200)
		checkPacked(t, model+"/periodic", c, seq, modelUniverse(t, c, model), fsim.Options{}, true)

		universe := modelUniverse(t, s344, model)
		pre := fsim.Run(s344, random.Slice(0, half), universe, fsim.Options{Init: logic.Zero, Kernel: fsim.KernelDense, SaveStates: true})
		cont := fsim.Options{InitialStates: pre.FinalStates}
		checkPacked(t, model+"/continued", s344, random.Slice(half, random.Len()), universe, cont, false)
	}
}

// checkPacked runs seq on both kernels under opts at Workers=2 and requires equal
// outcomes and dense-equivalent counters, at least two slab batches, a
// repeat exit when repeat is set, and fewer slab lane-cycles than dense
// vectors.
func checkPacked(t *testing.T, name string, c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, opts fsim.Options, repeat bool) {
	t.Helper()
	type work struct{ vectors, passes, dropped, repeats, evals int64 }
	var want *fsim.Outcome
	var dense work
	for _, kernel := range allKernels {
		opts := opts
		opts.Init, opts.Kernel, opts.Workers = logic.Zero, kernel, 2
		before := telemetry.Counters()
		got := fsim.Run(c, seq, faults, opts)
		d := telemetry.Counters().Sub(before)
		w := work{
			vectors: d.Get(telemetry.CtrVectors),
			passes:  d.Get(telemetry.CtrGroupPasses),
			dropped: d.Get(telemetry.CtrFaultsDropped),
			repeats: d.Get(telemetry.CtrRepeatExits),
			evals:   d.Get(telemetry.CtrGateEvals),
		}
		if kernel == fsim.KernelDense {
			want, dense = got, w
			if repeat && w.repeats == 0 {
				t.Errorf("%s: no repeat exit fired", name)
			}
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: slab outcome differs from dense", name)
		}
		if w != dense {
			t.Errorf("%s: slab counters %+v, dense %+v", name, w, dense)
		}
		if n := d.Get(telemetry.CtrSlabPasses); n < 2 {
			t.Errorf("%s: %d slab batches, want at least 2", name, n)
		}
		if lc := d.Get(telemetry.CtrSlabLaneCycles); lc >= dense.vectors {
			t.Errorf("%s: slab walked %d lane-cycles, dense %d: no live-fault packing", name, lc, dense.vectors)
		}
	}
}
