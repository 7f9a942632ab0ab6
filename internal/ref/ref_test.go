package ref

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/sim"
)

func s27(t *testing.T) *circuit.Circuit {
	t.Helper()
	c, err := bench.Parse("s27", strings.NewReader(iscas.S27Bench))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestS27FullCoverage replays the paper's Table 1 result: the deterministic
// sequence detects all 26 collapsed faults of s27 from an unknown power-up
// state. This pins the oracle to published numbers independently of fsim.
func TestS27FullCoverage(t *testing.T) {
	c := s27(t)
	seq, err := sim.ParseSequence(iscas.S27TestSequence)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	if len(faults) != 26 {
		t.Fatalf("collapsed fault count = %d, want 26", len(faults))
	}
	out := Run(c, seq, faults, Options{Init: logic.X})
	if out.NumDetected != 26 {
		for i, d := range out.Detected {
			if !d {
				t.Errorf("undetected: %s", faults[i].String(c))
			}
		}
		t.Fatalf("detected %d of 26", out.NumDetected)
	}
	for i, u := range out.DetTime {
		if u < 0 || u >= seq.Len() {
			t.Fatalf("fault %s: detection time %d out of range", faults[i].String(c), u)
		}
	}
}

// TestHandComputedPipeline checks detection times on a circuit small enough
// to trace by hand: a 1-input, 1-FF pipeline out = NOT(ff), ff' = in.
func TestHandComputedPipeline(t *testing.T) {
	b := circuit.NewBuilder("pipe")
	b.Input("in")
	b.DFF("ff", "in")
	b.Gate("out", circuit.Not, "ff")
	b.Output("out")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := sim.ParseSequence("1\n1\n1")
	ffID, _ := c.Lookup("ff")
	inID, _ := c.Lookup("in")
	outID, _ := c.Lookup("out")
	faults := []fault.Fault{
		{Node: ffID, Pin: -1, Stuck: 1},  // ff stem s-a-1: out forced 0; golden t0 = NOT(0)=1 -> detect t=0
		{Node: inID, Pin: -1, Stuck: 0},  // in s-a-0: ff stays 0, out stays 1; golden out t1 = 0 -> detect t=1
		{Node: outID, Pin: -1, Stuck: 1}, // out s-a-1: golden out 0 from t1 -> detect t=1
		{Node: ffID, Pin: 0, Stuck: 0},   // D-pin s-a-0: same as in s-a-0 here -> detect t=1
		{Node: outID, Pin: -1, Stuck: 1}, // duplicate fault entries are legal
	}
	out := Run(c, seq, faults, Options{Init: logic.Zero})
	want := []int{0, 1, 1, 1, 1}
	for i, w := range want {
		if !out.Detected[i] || out.DetTime[i] != w {
			t.Errorf("fault %d (%s): detected=%v t=%d, want t=%d",
				i, faults[i].String(c), out.Detected[i], out.DetTime[i], w)
		}
	}
	if out.NumDetected != 5 {
		t.Errorf("NumDetected = %d, want 5", out.NumDetected)
	}
}

// TestObserveLines checks Outcome.Lines by hand on the pipeline out =
// NOT(ff), ff' = in under the input 1, 1, 1: a node counts once the faulty
// machine shows the opposite binary value of a binary fault-free one, and
// an X on either side never counts.
func TestObserveLines(t *testing.T) {
	b := circuit.NewBuilder("pipe")
	b.Input("in")
	b.DFF("ff", "in")
	b.Gate("out", circuit.Not, "ff")
	b.Output("out")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	seq, _ := sim.ParseSequence("1\n1\n1")
	inID, _ := c.Lookup("in")
	ffID, _ := c.Lookup("ff")
	outID, _ := c.Lookup("out")
	faults := []fault.Fault{
		{Node: ffID, Pin: -1, Stuck: 1},  // ff 1 against 0 at t0, and out with it
		{Node: inID, Pin: -1, Stuck: 0},  // in at every t, ff and out from t1
		{Node: outID, Pin: -1, Stuck: 1}, // out from t1
	}
	cases := []struct {
		init logic.V
		want [][]circuit.NodeID
	}{
		{logic.Zero, [][]circuit.NodeID{{ffID, outID}, {inID, ffID, outID}, {outID}}},
		// From X, the fault-free ff is X at t0 and 1 later, as ff s-a-1's.
		{logic.X, [][]circuit.NodeID{nil, {inID, ffID, outID}, {outID}}},
	}
	for _, tc := range cases {
		out := Run(c, seq, faults, Options{Init: tc.init, ObserveLines: true})
		for i, want := range tc.want {
			for id := range c.Nodes {
				if got, w := out.Lines[i][id], slices.Contains(want, circuit.NodeID(id)); got != w {
					t.Errorf("init %v, fault %s, node %s: observed %v, want %v",
						tc.init, faults[i].String(c), c.Nodes[id].Name, got, w)
				}
			}
		}
	}
	if out := Run(c, seq, faults, Options{Init: logic.Zero}); out.Lines != nil {
		t.Errorf("Lines recorded without ObserveLines")
	}
}

func TestSaveStates(t *testing.T) {
	b := circuit.NewBuilder("pipe")
	b.Input("in")
	b.DFF("ff", "in")
	b.Gate("out", circuit.Not, "ff")
	b.Output("out")
	c, _ := b.Build()
	seq, _ := sim.ParseSequence("1\n0")
	ffID, _ := c.Lookup("ff")
	faults := []fault.Fault{
		{Node: ffID, Pin: 0, Stuck: 1}, // D-pin s-a-1: state captured as 1 every edge
		{Node: ffID, Pin: -1, Stuck: 1},
	}
	out := Run(c, seq, faults, Options{Init: logic.Zero, SaveStates: true})
	// Fault-free: state after t0 edge = 1, after t1 edge = 0.
	if got := out.FaultFreeFinal; len(got) != 1 || got[0] != logic.Zero {
		t.Errorf("fault-free final state = %v, want [0]", got)
	}
	// D-pin s-a-1 forces the captured state to 1 at every edge.
	if got := out.FinalStates[0]; len(got) != 1 || got[0] != logic.One {
		t.Errorf("D-pin faulty final state = %v, want [1]", got)
	}
	// A stem fault on the flip-flop output does NOT corrupt the register
	// itself (the force applies at the read), so the final state follows the
	// fault-free next-state function: in(t1) = 0.
	if got := out.FinalStates[1]; len(got) != 1 || got[0] != logic.Zero {
		t.Errorf("stem faulty final state = %v, want [0]", got)
	}
}

// TestTruthTablesMatchAlgebra cross-checks the restated truth tables against
// package logic's operations over all operand pairs — if the two ever
// disagree, either the oracle or the algebra is wrong and every differential
// result is suspect.
func TestTruthTablesMatchAlgebra(t *testing.T) {
	vs := []logic.V{logic.Zero, logic.One, logic.X}
	for _, a := range vs {
		if notT[a] != a.Not() {
			t.Errorf("NOT(%v): table %v, algebra %v", a, notT[a], a.Not())
		}
		for _, b := range vs {
			if andT[a][b] != logic.And(a, b) {
				t.Errorf("AND(%v,%v): table %v, algebra %v", a, b, andT[a][b], logic.And(a, b))
			}
			if orT[a][b] != logic.Or(a, b) {
				t.Errorf("OR(%v,%v): table %v, algebra %v", a, b, orT[a][b], logic.Or(a, b))
			}
			if xorT[a][b] != logic.Xor(a, b) {
				t.Errorf("XOR(%v,%v): table %v, algebra %v", a, b, xorT[a][b], logic.Xor(a, b))
			}
		}
	}
}

func TestSingleInputInvertingGates(t *testing.T) {
	// NAND/NOR/XNOR with one fanin invert it; AND/OR/XOR pass it through.
	for _, tc := range []struct {
		typ  circuit.GateType
		want logic.V
	}{
		{circuit.And, logic.One}, {circuit.Or, logic.One}, {circuit.Xor, logic.One},
		{circuit.Nand, logic.Zero}, {circuit.Nor, logic.Zero}, {circuit.Xnor, logic.Zero},
		{circuit.Buf, logic.One}, {circuit.Not, logic.Zero},
	} {
		if got := eval(tc.typ, []logic.V{logic.One}); got != tc.want {
			t.Errorf("%v(1) = %v, want %v", tc.typ, got, tc.want)
		}
	}
}
