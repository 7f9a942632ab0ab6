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
// sequence with every fault model, at one lane and at the automatic width,
// at Workers 1 and 2. The
// machines settle into the sequence's period long before its end, so groups
// stop at a repeat exit (fewer vectors than groups × length), and the
// outcome must still equal the full-length one-fault-at-a-time oracle.
func TestRepeatExitMatchesRef(t *testing.T) {
	c := iscas.MustLoad("s298")
	seq := periodicSequence(randutil.New(3), c.NumInputs(), 300)
	for _, model := range fault.ModelNames() {
		faults := modelUniverse(t, c, model)
		want := ref.Run(c, seq, faults, ref.Options{Init: logic.Zero})
		for _, lanes := range []int{1, 0} {
			for _, workers := range []int{1, 2} {
				got := fsim.Run(c, seq, faults, fsim.Options{Init: logic.Zero, SlabLanes: lanes, Workers: workers})
				if err := difftest.CompareOutcomes(c, faults, want, got, false); err != nil {
					t.Errorf("%s/SlabLanes=%d/Workers=%d: %v", model, lanes, workers, err)
				}
				if n := got.Work.RepeatExits; n == 0 {
					t.Errorf("%s/SlabLanes=%d/Workers=%d: no repeat exit fired", model, lanes, workers)
				}
				if v, full := got.Work.Vectors, numGroups(faults)*int64(seq.Len()); v >= full {
					t.Errorf("%s/SlabLanes=%d/Workers=%d: %d vectors, want fewer than %d", model, lanes, workers, v, full)
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
	out := fsim.Run(c, seq, faults, fsim.Options{Init: logic.Zero})
	if !out.Detected[0] || out.DetTime[0] != 7 {
		t.Errorf("EN s-a-0 detected=%v at %d, want detected at 7", out.Detected[0], out.DetTime[0])
	}
}

// TestRepeatExitIgnoresUndetectableFaults pins the exit point of a group
// whose fault can never be detected. E s-a-1 starts a counter that reaches
// no primary output: the kernel injects it, and its faulty slot counts
// while the fault-free machine stands still. The group must stop at time
// unit 1 all the same, where the fault-free state first repeats.
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
	out := fsim.Run(c, seq, faults, fsim.Options{Init: logic.Zero})
	if v, n := out.Work.Vectors, out.Work.RepeatExits; v != 1 || n != 1 {
		t.Errorf("%d vectors and %d repeat exits, want 1 and 1", v, n)
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
	want := fsim.Run(c, seq, faults, fsim.Options{Init: logic.Zero})
	for name, opts := range cases {
		opts.Init = logic.Zero
		got := fsim.Run(c, seq, faults, opts)
		if v := got.Work.Vectors; v != full {
			t.Errorf("%s: %d vectors, want the whole sequence (%d)", name, v, full)
		}
		if n := got.Work.RepeatExits; n != 0 {
			t.Errorf("%s: %d repeat exits, want none", name, n)
		}
		if !reflect.DeepEqual(got.Detected, want.Detected) || !reflect.DeepEqual(got.DetTime, want.DetTime) {
			t.Errorf("%s: detections differ from the run without it", name)
		}
	}
}

// TestEarlyExitCountersKernelInvariant runs s298 without SaveStates and
// requires the automatic lane width to report exactly the work counters of
// one lane, where every group runs alone and never repacks: the same
// vectors, group passes, dropped faults, repeat exits and gate
// evaluations. Two cases stop groups early:
//   - a random sequence against the stuck-at faults it detects (as the
//     pipeline does with its targets): every group stops at its last
//     detection;
//   - a periodic weighted sequence against the whole fault universe: groups
//     keeping undetected faults stop at a repeat exit.
//
// The counters are kept per fault group, so a group that has finished stops
// counting while the rest of its batch runs on, and the next repack drops
// the lane that held it.
func TestEarlyExitCountersKernelInvariant(t *testing.T) {
	checkEarlyExitKernelInvariant(t, "stuck-at")
}

// TestEarlyExitCountersPerModel repeats the early-exit lane comparison of
// TestEarlyExitCountersKernelInvariant for every other fault model, so the
// transition and bridge fault lists also stop each group at the same vector
// at every width.
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
	for i, det := range fsim.Run(c, random, universe, fsim.Options{Init: logic.Zero}).Detected {
		if det {
			detected = append(detected, universe[i])
		}
	}
	checkKernelWork(t, model+"/random", c, random, detected, false)
	periodic := periodicSequence(randutil.New(3), c.NumInputs(), 200)
	checkKernelWork(t, model+"/periodic", c, periodic, universe, true)
}

// checkKernelWork requires the automatic lane width to report the one-lane
// run's vectors, group passes, dropped faults, repeat exits and gate
// evaluations, and the one-lane run to stop some group early (by a repeat
// exit when repeat is set) so that the comparison means something.
func checkKernelWork(t *testing.T, name string, c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, repeat bool) {
	t.Helper()
	type work struct{ vectors, passes, dropped, repeats, evals int64 }
	var one work
	for _, lanes := range []int{1, 0} {
		before := telemetry.Counters()
		fsim.Run(c, seq, faults, fsim.Options{Init: logic.Zero, SlabLanes: lanes})
		d := telemetry.Counters().Sub(before)
		got := work{
			vectors: d.Get(telemetry.CtrVectors),
			passes:  d.Get(telemetry.CtrGroupPasses),
			dropped: d.Get(telemetry.CtrFaultsDropped),
			repeats: d.Get(telemetry.CtrRepeatExits),
			evals:   d.Get(telemetry.CtrGateEvals),
		}
		if lanes == 1 {
			one = got
			if got.vectors >= got.passes*int64(seq.Len()) {
				t.Errorf("%s: no group exited early (%d vectors, %d passes)", name, got.vectors, got.passes)
			}
			if repeat && got.repeats == 0 {
				t.Errorf("%s: no repeat exit fired", name)
			}
			continue
		}
		if got != one {
			t.Errorf("%s: counters %+v, one lane %+v", name, got, one)
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
//     group's exit point and with it Work.Vectors;
//   - the second half of a random sequence on s344 continued from the
//     first half's saved states (InitialStates), so the continued
//     flip-flop words and launch histories are what the repack moves.
//
// In both, the outcome must equal that of one lane at Workers=1, where no
// repack runs, and so must its per-group work (Work without Work.Slab),
// while Work.Slab.LaneCycles must fall below the one-lane run's, its vector
// count: the test fails if packing never fires.
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
		pre := fsim.Run(s344, random.Slice(0, half), universe, fsim.Options{Init: logic.Zero, SaveStates: true})
		cont := fsim.Options{InitialStates: pre.FinalStates}
		checkPacked(t, model+"/continued", s344, random.Slice(half, random.Len()), universe, cont, false)
	}
}

// checkPacked runs seq under opts at one lane and Workers=1, then at the
// automatic width and Workers=2, and requires equal outcomes and per-group
// work, at least two slab batches, a repeat exit when repeat is set, and
// fewer lane-cycles than the one-lane run's vectors.
func checkPacked(t *testing.T, name string, c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, opts fsim.Options, repeat bool) {
	t.Helper()
	opts.Init = logic.Zero
	one := opts
	one.SlabLanes, one.Workers = 1, 1
	want := fsim.Run(c, seq, faults, one)
	want.Work.Slab = fsim.SlabWork{}
	if repeat && want.Work.RepeatExits == 0 {
		t.Errorf("%s: no repeat exit fired", name)
	}
	opts.Workers = 2
	got := fsim.Run(c, seq, faults, opts)
	slab := got.Work.Slab
	// With the batch tallies cleared, DeepEqual also demands the one-lane
	// run's vectors, group passes, repeat exits and gate evaluations.
	got.Work.Slab = fsim.SlabWork{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: outcome or work differs from one lane's: %+v, one lane %+v", name, got.Work, want.Work)
	}
	if slab.Passes < 2 {
		t.Errorf("%s: %d slab batches, want at least 2", name, slab.Passes)
	}
	if lc := slab.LaneCycles; lc >= want.Work.Vectors {
		t.Errorf("%s: slab walked %d lane-cycles, one lane %d: no live-fault packing", name, lc, want.Work.Vectors)
	}
}
