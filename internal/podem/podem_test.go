package podem

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/rcg"
	"repro/internal/sim"
)

// verify checks that a found window really detects the fault when simulated
// from the all-zero state.
func verify(t *testing.T, c *circuit.Circuit, f fault.Fault, res *Result) {
	t.Helper()
	if !res.Found {
		t.Fatalf("no test found for %s", f.String(c))
	}
	out := fsim.Run(c, res.Seq, []fault.Fault{f}, fsim.Options{Init: logic.Zero})
	if !out.Detected[0] {
		t.Fatalf("PODEM window does not detect %s:\n%s", f.String(c), res.Seq)
	}
}

func zeroState(c *circuit.Circuit) []logic.V {
	return make([]logic.V, c.NumDFFs())
}

func TestCombinationalAndGate(t *testing.T) {
	b := circuit.NewBuilder("and")
	b.Input("a")
	b.Input("b")
	b.Gate("g", circuit.And, "a", "b")
	b.Output("g")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// g s-a-0 requires a=b=1.
	g, _ := c.Lookup("g")
	f := fault.Fault{Node: g, Pin: -1, Stuck: 0}
	res, err := FindTest(c, f, zeroState(c), zeroState(c), Options{Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, c, f, res)
	if res.Seq.At(0, 0) != logic.One || res.Seq.At(0, 1) != logic.One {
		t.Fatalf("expected a=b=1, got %s", res.Seq)
	}
}

func TestSequentialPropagationThroughShiftRegister(t *testing.T) {
	// in -> q0 -> q1 -> out: a fault at the input needs 3 frames to reach
	// the output.
	b := circuit.NewBuilder("sr")
	b.Input("in")
	b.DFF("q0", "inb")
	b.DFF("q1", "q0")
	b.Gate("inb", circuit.Buf, "in")
	b.Gate("out", circuit.Buf, "q1")
	b.Output("out")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, _ := c.Lookup("in")
	f := fault.Fault{Node: in, Pin: -1, Stuck: 0}
	res, err := FindTest(c, f, zeroState(c), zeroState(c), Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, c, f, res)
	// Too few frames must fail.
	short, err := FindTest(c, f, zeroState(c), zeroState(c), Options{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	if short.Found {
		t.Fatal("2 frames cannot propagate through 2 flip-flops plus detection")
	}
}

func TestStateActivation(t *testing.T) {
	// The fault is on the state cone: q' = XOR(q, en); out = q. Fault q
	// s-a-0 needs en=1 in an earlier frame to set q, then observation.
	b := circuit.NewBuilder("tog")
	b.Input("en")
	b.DFF("q", "d")
	b.Gate("d", circuit.Xor, "q", "en")
	b.Gate("out", circuit.Buf, "q")
	b.Output("out")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q, _ := c.Lookup("q")
	f := fault.Fault{Node: q, Pin: -1, Stuck: 0}
	res, err := FindTest(c, f, zeroState(c), zeroState(c), Options{Frames: 4})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, c, f, res)
}

func TestComparatorNeedle(t *testing.T) {
	// The headline case: the cmphard comparator's match line s-a-0 needs the
	// exact 16-bit magic constant — hopeless for random search, one
	// backtrace chain for PODEM.
	c, err := iscas.HardCircuit()
	if err != nil {
		t.Fatal(err)
	}
	match, ok := c.Lookup("match")
	if !ok {
		t.Fatal("match line missing")
	}
	f := fault.Fault{Node: match, Pin: -1, Stuck: 0}
	res, err := FindTest(c, f, zeroState(c), zeroState(c), Options{Frames: 2})
	if err != nil {
		t.Fatal(err)
	}
	verify(t, c, f, res)
}

func TestUndetectableFaultBounded(t *testing.T) {
	// OR(a, NOT a) is constantly 1: its s-a-1 is undetectable. The search
	// must terminate without a result.
	b := circuit.NewBuilder("red")
	b.Input("a")
	b.Gate("an", circuit.Not, "a")
	b.Gate("g", circuit.Or, "a", "an")
	b.Output("g")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c.Lookup("g")
	f := fault.Fault{Node: g, Pin: -1, Stuck: 1}
	res, err := FindTest(c, f, nil, nil, Options{Frames: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("undetectable fault 'detected'")
	}
}

func TestContinuationFromDivergedStates(t *testing.T) {
	// If the good and faulty states already differ at a flip-flop feeding an
	// output cone, one frame suffices even though the fault site itself is
	// never re-activated.
	b := circuit.NewBuilder("cont")
	b.Input("en")
	b.DFF("q", "d")
	b.Gate("d", circuit.And, "q", "en") // hold while en=1
	b.Gate("out", circuit.And, "q", "en")
	b.Output("out")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	q, _ := c.Lookup("q")
	f := fault.Fault{Node: q, Pin: -1, Stuck: 0}
	good := []logic.V{logic.One}
	faulty := []logic.V{logic.Zero} // the fault already corrupted the state
	res, err := FindTest(c, f, good, faulty, Options{Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("diverged state not exploited")
	}
	// en must be 1 to observe.
	if res.Seq.At(0, 0) != logic.One {
		t.Fatalf("expected en=1, got %s", res.Seq)
	}
}

func TestStateWidthValidation(t *testing.T) {
	c := iscas.MustLoad("s27")
	if _, err := FindTest(c, fault.Fault{Node: 0, Pin: -1}, nil, nil, Options{}); err == nil {
		t.Fatal("wrong state width accepted")
	}
}

func TestBranchFault(t *testing.T) {
	// Branch fault on one fanout of a stem: a = fanout to AND and OR.
	b := circuit.NewBuilder("br")
	b.Input("a")
	b.Input("b")
	b.Gate("g1", circuit.And, "a", "b")
	b.Gate("g2", circuit.Or, "a", "b")
	b.Output("g1")
	b.Output("g2")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	g1, _ := c.Lookup("g1")
	f := fault.Fault{Node: g1, Pin: 0, Stuck: 0} // branch a->g1 s-a-0
	res, err := FindTest(c, f, nil, nil, Options{Frames: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("branch fault not detected")
	}
	out := fsim.Run(c, res.Seq, []fault.Fault{f}, fsim.Options{Init: logic.Zero})
	if !out.Detected[0] {
		t.Fatalf("window does not detect the branch fault:\n%s", res.Seq)
	}
}

// TestWideGates is a regression test: gates with more than 8 fanins used to
// overflow the fixed-size fanin buffers of the pair evaluator and panic.
// The .bench parser and the fault simulator accept any fanin count, so
// PODEM must too.
func TestWideGates(t *testing.T) {
	for _, typ := range []circuit.GateType{circuit.And, circuit.Xor} {
		for _, width := range []int{9, 16} {
			b := circuit.NewBuilder("wide")
			var ins []string
			for i := 0; i < width; i++ {
				name := fmt.Sprintf("a%d", i)
				b.Input(name)
				ins = append(ins, name)
			}
			b.Gate("g", typ, ins...)
			b.Output("g")
			c, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			g, _ := c.Lookup("g")
			for _, f := range []fault.Fault{
				{Node: g, Pin: -1, Stuck: 0},
				{Node: g, Pin: -1, Stuck: 1},
				{Node: g, Pin: width - 1, Stuck: 0},
				{Node: g, Pin: width - 1, Stuck: 1},
			} {
				res, err := FindTest(c, f, nil, nil, Options{Frames: 1})
				if err != nil {
					t.Fatal(err)
				}
				verify(t, c, f, res)
			}
		}
	}
}

// windowSim is the whole-window good/faulty simulation the searcher used
// before implication became incremental: every node of every frame is
// re-evaluated from the start states under s.pi, with sim.Eval on each rail.
// It is the oracle for assign and for referenceFindTest.
func windowSim(s *searcher, goodInit, faultyInit []logic.V) ([][]pair, int) {
	c, flt := s.c, s.flt
	stem := func(id circuit.NodeID, v pair) pair {
		if flt.Pin < 0 && flt.Node == id {
			v.f = logic.V(flt.Stuck)
		}
		return v
	}
	gState := append([]logic.V(nil), goodInit...)
	fState := append([]logic.V(nil), faultyInit...)
	vals := make([][]pair, len(s.pi))
	detAt := -1
	for fr := range vals {
		vals[fr] = make([]pair, len(c.Nodes))
		v := vals[fr]
		for k, id := range c.Inputs {
			v[id] = stem(id, pair{s.pi[fr][k], s.pi[fr][k]})
		}
		for k, id := range c.DFFs {
			v[id] = stem(id, pair{gState[k], fState[k]})
		}
		for _, id := range c.Order {
			n := &c.Nodes[id]
			var g, f []logic.V
			for pin, fid := range n.Fanins {
				p := v[fid]
				if flt.Pin == pin && flt.Node == id {
					p.f = logic.V(flt.Stuck)
				}
				g = append(g, p.g)
				f = append(f, p.f)
			}
			v[id] = stem(id, pair{sim.Eval(n.Type, g), sim.Eval(n.Type, f)})
		}
		if detAt < 0 {
			for _, id := range c.Outputs {
				if v[id].divergent() {
					detAt = fr
					break
				}
			}
		}
		for k, id := range c.DFFs {
			p := v[c.Nodes[id].Fanins[0]]
			if flt.Pin == 0 && flt.Node == id {
				p.f = logic.V(flt.Stuck)
			}
			gState[k], fState[k] = p.g, p.f
		}
	}
	return vals, detAt
}

// referenceFindTest is the decision loop as it was before implication
// became incremental: every decision, flip and release writes s.pi and
// re-simulates the whole window. Objective selection and backtrace are
// shared with the production searcher.
func referenceFindTest(c *circuit.Circuit, f fault.Fault, goodInit, faultyInit []logic.V, opts Options) *Result {
	opts.fill()
	s := newSearcher(c, f, opts, false)
	simulate := func() {
		s.vals, s.detAt = windowSim(s, goodInit, faultyInit)
		s.diverged = divergedCounts(s.vals)
	}
	res := &Result{}
	var stack []decision
	simulate()
	for {
		if s.detAt >= 0 {
			res.Found = true
			res.Seq = s.window()
			return res
		}
		id, fr, v, ok := s.objective()
		if ok {
			if k, pfr, pv, traced := s.backtrace(id, fr, v); traced {
				s.pi[pfr][k] = pv
				stack = append(stack, decision{input: k, frame: pfr, value: pv})
				simulate()
				continue
			}
		}
		for {
			if len(stack) == 0 {
				return res
			}
			res.Backtracks++
			if res.Backtracks > s.opts.MaxBacktracks {
				return res
			}
			d := &stack[len(stack)-1]
			if !d.flipped {
				d.flipped = true
				d.value = d.value.Not()
				s.pi[d.frame][d.input] = d.value
				break
			}
			s.pi[d.frame][d.input] = logic.X
			stack = stack[:len(stack)-1]
		}
		simulate()
	}
}

// diffCircuits returns the suite circuits s27–s1423 followed by n random
// rcg circuits (fewer of both under -short).
func diffCircuits(t *testing.T, n int) []*circuit.Circuit {
	t.Helper()
	names := []string{"s27", "s208", "s298", "s344", "s382", "s386", "s400",
		"s420", "s444", "s526", "s641", "s820", "s1196", "s1423"}
	if testing.Short() {
		names, n = names[:6], n/4
	}
	var out []*circuit.Circuit
	for _, name := range names {
		out = append(out, iscas.MustLoad(name))
	}
	for seed := uint64(1); seed <= uint64(n); seed++ {
		out = append(out, rcg.FromSeed(seed))
	}
	return out
}

// randomStates draws a good start state and a faulty one that agrees with
// it on most flip-flops, both with X values; every fourth draw is all-X,
// the state an uninitialised circuit starts from.
func randomStates(rng *randutil.RNG, n int) (good, faulty []logic.V) {
	good, faulty = make([]logic.V, n), make([]logic.V, n)
	if rng.Intn(4) == 0 {
		for k := range good {
			good[k], faulty[k] = logic.X, logic.X
		}
		return good, faulty
	}
	for k := range good {
		good[k] = logic.V(rng.Intn(3))
		faulty[k] = good[k]
		if rng.Intn(4) == 0 {
			faulty[k] = logic.V(rng.Intn(3)) // diverged (or X on one rail)
		}
	}
	return good, faulty
}

// divergedCounts counts the fault effects of every frame from scratch.
func divergedCounts(vals [][]pair) []int {
	n := make([]int, len(vals))
	for fr := range vals {
		for _, v := range vals[fr] {
			if v.divergent() {
				n[fr]++
			}
		}
	}
	return n
}

// TestAssignMatchesWindowSimulation drives random walks of assign calls —
// decisions, flips and releases back to X in arbitrary frames — and checks
// after every call that the incrementally maintained values, detection
// frame and per-frame fault-effect counts equal a whole-window
// re-simulation.
func TestAssignMatchesWindowSimulation(t *testing.T) {
	rng := randutil.New(12)
	for _, c := range diffCircuits(t, 200) {
		universe := fault.Universe(c)
		for trial := 0; trial < 4; trial++ {
			f := universe[rng.Intn(len(universe))]
			good, faulty := randomStates(rng, c.NumDFFs())
			opts := Options{Frames: 1 + rng.Intn(8)}
			opts.fill()
			s := newSearcher(c, f, opts, false)
			s.initialise(good, faulty)
			for step := 0; step < 40; step++ {
				fr, k := rng.Intn(opts.Frames), rng.Intn(c.NumInputs())
				s.assign(fr, k, logic.V(rng.Intn(3)))
				want, detAt := windowSim(s, good, faulty)
				if !reflect.DeepEqual(s.vals, want) || s.detAt != detAt ||
					!reflect.DeepEqual(s.diverged, divergedCounts(want)) {
					t.Fatalf("%s, fault %s, step %d (frame %d input %d): incremental values (detAt %d) differ from window simulation (detAt %d)",
						c.Name, f.String(c), step, fr, k, s.detAt, detAt)
				}
			}
		}
	}
}

// TestFindTestMatchesReference runs the production searcher and the
// whole-window reference on the same faults and start states and requires
// identical outcomes: Found, the backtrack count and the window itself.
func TestFindTestMatchesReference(t *testing.T) {
	rng := randutil.New(13)
	searches, found := 0, 0
	for _, c := range diffCircuits(t, 200) {
		universe := fault.Universe(c)
		for trial := 0; trial < 6; trial++ {
			f := universe[rng.Intn(len(universe))]
			good, faulty := randomStates(rng, c.NumDFFs())
			opts := Options{Frames: []int{1, 4, 8}[rng.Intn(3)], MaxBacktracks: 200}
			got, err := FindTest(c, f, good, faulty, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := referenceFindTest(c, f, good, faulty, opts)
			name := fmt.Sprintf("%s, fault %s, %d frames", c.Name, f.String(c), opts.Frames)
			if got.Found != want.Found || got.Backtracks != want.Backtracks {
				t.Fatalf("%s: found=%v backtracks=%d, reference found=%v backtracks=%d",
					name, got.Found, got.Backtracks, want.Found, want.Backtracks)
			}
			if got.Found && got.Seq.String() != want.Seq.String() {
				t.Fatalf("%s: window\n%s\nreference window\n%s", name, got.Seq, want.Seq)
			}
			searches++
			if got.Found {
				found++
			}
		}
	}
	t.Logf("%d searches, %d found", searches, found)
}
