package ref

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// pipe builds the 1-input 1-FF pipeline out = NOT(ff), ff' = in used by the
// hand-computed stuck-at tests, small enough to trace transition launches by
// hand too.
func pipe(t *testing.T) *circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("pipe")
	b.Input("in")
	b.DFF("ff", "in")
	b.Gate("out", circuit.Not, "ff")
	b.Output("out")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestHandComputedTransition traces launch-on-capture transition faults on
// the pipeline by hand. Fault-free traces for the sequence 0,1,0,1 from
// state 0: in = 0,1,0,1; ff = 0,0,1,0; out = 1,1,0,1.
func TestHandComputedTransition(t *testing.T) {
	c := pipe(t)
	seq, _ := sim.ParseSequence("0\n1\n0\n1")
	inID, _ := c.Lookup("in")
	outID, _ := c.Lookup("out")
	faults := []fault.Fault{
		// Slow-to-rise on in: launches at t1 and t3, holding in at 0 — in is
		// effectively 0,0,0,0, so ff stays 0 and out stays 1; golden out first
		// differs at t2 (golden 0).
		{Node: inID, Pin: -1, Stuck: 1, Kind: fault.KindTransition},
		// Slow-to-fall on in: launches at t2 (1→0), in = 0,1,1,1, ff =
		// 0,0,1,1, out = 1,1,0,0; golden out first differs at t3.
		{Node: inID, Pin: -1, Stuck: 0, Kind: fault.KindTransition},
		// Slow-to-fall on out (nominal 1,1,0,1): launch at t2 holds out at 1
		// against golden 0 — detect at t2.
		{Node: outID, Pin: -1, Stuck: 0, Kind: fault.KindTransition},
		// Slow-to-rise on out: launch at t3 holds out at 0 against golden 1.
		{Node: outID, Pin: -1, Stuck: 1, Kind: fault.KindTransition},
	}
	out := Run(c, seq, faults, Options{Init: logic.Zero})
	want := []int{2, 3, 2, 3}
	for i, w := range want {
		if !out.Detected[i] || out.DetTime[i] != w {
			t.Errorf("fault %d (%s): detected=%v t=%d, want t=%d",
				i, faults[i].String(c), out.Detected[i], out.DetTime[i], w)
		}
	}
	if out.NumDetected != 4 {
		t.Errorf("NumDetected = %d, want 4", out.NumDetected)
	}
}

// TestTransitionNoLaunchAtTimeZero pins the X-start rule: the launch history
// begins at X, so time unit 0 never activates a transition fault even when
// the first vector lands on the destination value.
func TestTransitionNoLaunchAtTimeZero(t *testing.T) {
	c := pipe(t)
	seq, _ := sim.ParseSequence("1\n1")
	inID, _ := c.Lookup("in")
	// If the history wrongly started at 0, t0 would launch (0→1), hold in at
	// 0, and the wrong ff value would reach out at t1.
	f := []fault.Fault{{Node: inID, Pin: -1, Stuck: 1, Kind: fault.KindTransition}}
	if out := Run(c, seq, f, Options{Init: logic.Zero}); out.Detected[0] {
		t.Fatalf("slow-to-rise detected at t=%d; time unit 0 must not launch", out.DetTime[0])
	}
}

// TestTransitionSaveStates: an undetected transition fault can still corrupt
// the flip-flop state. Sequence 0,1: the t1 launch holds in at 0, so the
// faulty machine captures 0 where the fault-free machine captures 1, while
// the outputs (reading the pre-edge ff) never differ within the sequence.
func TestTransitionSaveStates(t *testing.T) {
	c := pipe(t)
	seq, _ := sim.ParseSequence("0\n1")
	inID, _ := c.Lookup("in")
	f := []fault.Fault{{Node: inID, Pin: -1, Stuck: 1, Kind: fault.KindTransition}}
	out := Run(c, seq, f, Options{Init: logic.Zero, SaveStates: true})
	if out.Detected[0] {
		t.Fatalf("fault unexpectedly detected at t=%d", out.DetTime[0])
	}
	if got := out.FaultFreeFinal; len(got) != 1 || got[0] != logic.One {
		t.Errorf("fault-free final state = %v, want [1]", got)
	}
	if got := out.FinalStates[0]; len(got) != 1 || got[0] != logic.Zero {
		t.Errorf("faulty final state = %v, want [0]", got)
	}
	// The site's last nominal value is the history a continuation resumes
	// from: 1 here, so a continuation applying 1 again launches nothing.
	if got := out.LaunchHistory[0]; got != logic.One {
		t.Errorf("launch history = %v, want 1", got)
	}
}

// TestLaunchHistoryNonTransition: a stuck-at fault has no launch history,
// so the saved value is X.
func TestLaunchHistoryNonTransition(t *testing.T) {
	c := pipe(t)
	seq, _ := sim.ParseSequence("0\n1")
	inID, _ := c.Lookup("in")
	out := Run(c, seq, []fault.Fault{{Node: inID, Pin: -1, Stuck: 1}}, Options{Init: logic.Zero, SaveStates: true})
	if got := out.LaunchHistory[0]; got != logic.X {
		t.Errorf("stuck-at launch history = %v, want X", got)
	}
}

// TestHandComputedBridge traces a wired-OR bridge between the two inverter
// outputs of out = AND(NOT(a), NOT(b)). The bridged machine computes
// out = OR(!a,!b) = NAND(a,b) instead of NOR(a,b): the machines differ
// exactly when a != b.
func TestHandComputedBridge(t *testing.T) {
	b := circuit.NewBuilder("brdg")
	b.Input("a")
	b.Input("b")
	b.Gate("g1", circuit.Not, "a")
	b.Gate("g2", circuit.Not, "b")
	b.Gate("out", circuit.And, "g1", "g2")
	b.Output("out")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := c.Lookup("g1")
	g2, _ := c.Lookup("g2")
	seq, _ := sim.ParseSequence("00\n01") // t0: equal (both 1); t1: golden 0, bridged 1
	faults := []fault.Fault{
		{Node: g1, Node2: g2, Pin: -1, Stuck: 1, Kind: fault.KindBridge}, // wired-OR
		// Wired-AND is undetectable here: out = AND(g1,g2) already computes
		// the wired-AND of the bridged pair, so forcing both stems to it
		// never changes out.
		{Node: g1, Node2: g2, Pin: -1, Stuck: 0, Kind: fault.KindBridge},
	}
	out := Run(c, seq, faults, Options{Init: logic.Zero})
	if !out.Detected[0] || out.DetTime[0] != 1 {
		t.Errorf("wired-OR: detected=%v t=%d, want t=1", out.Detected[0], out.DetTime[0])
	}
	if out.Detected[1] {
		t.Errorf("wired-AND detected at t=%d, want undetected", out.DetTime[1])
	}
	if out.NumDetected != 1 {
		t.Errorf("NumDetected = %d, want 1", out.NumDetected)
	}
}

// TestBridgeSaveStates: a bridge can corrupt captured state without ever
// reaching an output. ff captures input a as forced by pass 2, while the
// only output reads ff before the edge; sequence (a,b) = (1,0),(0,1) under
// wired-OR keeps the output trace identical (0 then 1) but captures 1 at
// both edges in the bridged machine, against fault-free 1 then 0.
func TestBridgeSaveStates(t *testing.T) {
	b := circuit.NewBuilder("brdgff")
	b.Input("a")
	b.Input("b") // drives nothing; exists only as the bridge partner
	b.DFF("ff", "a")
	b.Gate("out", circuit.Buf, "ff")
	b.Output("out")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	aID, _ := c.Lookup("a")
	bID, _ := c.Lookup("b")
	seq, _ := sim.ParseSequence("10\n01")
	f := []fault.Fault{{Node: aID, Node2: bID, Pin: -1, Stuck: 1, Kind: fault.KindBridge}}
	out := Run(c, seq, f, Options{Init: logic.Zero, SaveStates: true})
	if out.Detected[0] {
		t.Fatalf("fault unexpectedly detected at t=%d", out.DetTime[0])
	}
	if got := out.FaultFreeFinal; len(got) != 1 || got[0] != logic.Zero {
		t.Errorf("fault-free final state = %v, want [0]", got)
	}
	if got := out.FinalStates[0]; len(got) != 1 || got[0] != logic.One {
		t.Errorf("bridged final state = %v, want [1]", got)
	}
}

// TestBridgeXWired: an X on one bridged stem makes the wired value X unless
// the other stem forces it (0 for wired-AND, 1 for wired-OR) — the ternary
// Kleene tables, checked through a run from unknown power-up state.
func TestBridgeXWired(t *testing.T) {
	b := circuit.NewBuilder("brdgx")
	b.Input("a")
	b.DFF("ff", "a") // powers up X
	b.Gate("out", circuit.Buf, "a")
	b.Output("out")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	aID, _ := c.Lookup("a")
	ffID, _ := c.Lookup("ff")
	seq, _ := sim.ParseSequence("1\n1")
	faults := []fault.Fault{
		// Wired-AND of a=1 with ff=X is X at t0: out becomes X, which never
		// counts as a detection, and the X captured into ff keeps the wired
		// value X at t1 too.
		{Node: aID, Node2: ffID, Pin: -1, Stuck: 0, Kind: fault.KindBridge},
		// Wired-OR of a=1 with ff=X is 1 even at t0: no corruption at all.
		{Node: aID, Node2: ffID, Pin: -1, Stuck: 1, Kind: fault.KindBridge},
	}
	out := Run(c, seq, faults, Options{Init: logic.X})
	for i := range faults {
		if out.Detected[i] {
			t.Errorf("fault %d (%s) detected at t=%d, want undetected",
				i, faults[i].String(c), out.DetTime[i])
		}
	}
}
