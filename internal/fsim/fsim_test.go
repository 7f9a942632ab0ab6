package fsim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
)

// scalarFaulty is an independent, slot-free reference implementation of
// sequential fault simulation used as an oracle against the bit-parallel
// simulator.
func scalarFaulty(c *circuit.Circuit, seq *sim.Sequence, f *fault.Fault, init logic.V) (vals [][]logic.V) {
	v := make([]logic.V, len(c.Nodes))
	state := make([]logic.V, len(c.DFFs))
	for i := range state {
		state[i] = init
	}
	inject := func(id circuit.NodeID, x logic.V) logic.V {
		if f != nil && f.Pin < 0 && f.Node == id {
			return logic.V(f.Stuck)
		}
		return x
	}
	out := make([][]logic.V, 0, seq.Len())
	for u := 0; u < seq.Len(); u++ {
		for k, id := range c.Inputs {
			v[id] = inject(id, seq.At(u, k))
		}
		for k, id := range c.DFFs {
			v[id] = inject(id, state[k])
		}
		for _, id := range c.Order {
			n := &c.Nodes[id]
			in := make([]logic.V, len(n.Fanins))
			for k, fn := range n.Fanins {
				in[k] = v[fn]
				if f != nil && f.Pin == k && f.Node == id {
					in[k] = logic.V(f.Stuck)
				}
			}
			v[id] = inject(id, sim.Eval(n.Type, in))
		}
		snapshot := make([]logic.V, len(v))
		copy(snapshot, v)
		out = append(out, snapshot)
		for k, id := range c.DFFs {
			d := v[c.Nodes[id].Fanins[0]]
			if f != nil && f.Node == id && f.Pin == 0 {
				d = logic.V(f.Stuck)
			}
			state[k] = d
		}
	}
	return out
}

// scalarDetect computes detection (first time, at primary outputs) from
// scalar fault-free and faulty traces.
func scalarDetect(c *circuit.Circuit, good, bad [][]logic.V) (bool, int) {
	for u := range good {
		for _, id := range c.Outputs {
			g, b := good[u][id], bad[u][id]
			if g.IsBinary() && b.IsBinary() && g != b {
				return true, u
			}
		}
	}
	return false, -1
}

func crossCheckCircuit(t *testing.T, c *circuit.Circuit, seqLen int, init logic.V, seed uint64) {
	t.Helper()
	rng := randutil.New(seed)
	seq := sim.RandomSequence(rng, c.NumInputs(), seqLen)
	faults := fault.CollapsedUniverse(c)
	out := Run(c, seq, faults, Options{Init: init})
	good := scalarFaulty(c, seq, nil, init)
	for i := range faults {
		bad := scalarFaulty(c, seq, &faults[i], init)
		det, at := scalarDetect(c, good, bad)
		if det != out.Detected[i] || (det && at != out.DetTime[i]) {
			t.Fatalf("%s / fault %s: scalar (%v,%d) vs parallel (%v,%d)",
				c.Name, faults[i].String(c), det, at, out.Detected[i], out.DetTime[i])
		}
	}
}

func TestCrossCheckS27(t *testing.T) {
	c := iscas.MustLoad("s27")
	for seed := uint64(0); seed < 8; seed++ {
		crossCheckCircuit(t, c, 20, logic.X, seed)
		crossCheckCircuit(t, c, 20, logic.Zero, seed+100)
	}
}

func TestCrossCheckSyntheticCircuits(t *testing.T) {
	// Random small synthetic circuits: the group spans multiple words only
	// for bigger circuits, so include one with >63 collapsed faults.
	profiles := []iscas.Profile{
		{Name: "x1", Inputs: 3, Outputs: 2, DFFs: 2, Gates: 12, Seed: 1, Synthetic: true},
		{Name: "x2", Inputs: 4, Outputs: 3, DFFs: 4, Gates: 30, Seed: 2, Synthetic: true},
		{Name: "x3", Inputs: 5, Outputs: 4, DFFs: 6, Gates: 80, Seed: 3, Synthetic: true},
	}
	for _, p := range profiles {
		c, err := iscas.Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		crossCheckCircuit(t, c, 16, logic.Zero, p.Seed+7)
		crossCheckCircuit(t, c, 16, logic.X, p.Seed+8)
	}
}

func TestS27PaperSequenceDetectsAllFaults(t *testing.T) {
	// The paper states the Table 1 sequence detects all (sequentially
	// testable) stuck-at faults of s27; verify against our collapsed list
	// with unknown initial state.
	c := iscas.MustLoad("s27")
	seq, err := sim.ParseSequence(iscas.S27TestSequence)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	out := Run(c, seq, faults, Options{Init: logic.X})
	var undet []string
	for i, d := range out.Detected {
		if !d {
			undet = append(undet, faults[i].String(c))
		}
	}
	if len(undet) > 0 {
		t.Fatalf("Table 1 sequence leaves %d/%d faults undetected: %v",
			len(undet), len(faults), undet)
	}
	// Detection times are within the sequence.
	for i, d := range out.Detected {
		if d && (out.DetTime[i] < 0 || out.DetTime[i] >= seq.Len()) {
			t.Fatalf("fault %d has detection time %d", i, out.DetTime[i])
		}
	}
}

func TestAbortAfterFirstGroup(t *testing.T) {
	// Using an all-X sequence on a multi-group circuit, the first group
	// detects nothing and the run aborts early, skipping the later groups.
	c := iscas.MustLoad("s298")
	seq := sim.NewSequence(c.NumInputs())
	vec := make([]logic.V, c.NumInputs())
	for i := range vec {
		vec[i] = logic.X
	}
	seq.Append(vec)
	seq.Append(vec)
	faults := fault.CollapsedUniverse(c)
	if len(faults) <= GroupSize {
		t.Fatalf("need a multi-group fault list, got %d faults", len(faults))
	}
	out := Run(c, seq, faults, Options{Init: logic.X, AbortAfterFirstGroupIfNone: true})
	if out.NumDetected != 0 {
		t.Skip("sequence unexpectedly detects faults; abort path not exercised")
	}
	if !out.Aborted {
		t.Fatal("expected Aborted")
	}
}

func TestAbortedOnlyWhenGroupsRemain(t *testing.T) {
	// A zero-detection run over a fault list that fits in one group is a
	// complete simulation, not a cut-short one: Aborted must stay false.
	c := iscas.MustLoad("s27")
	seq, _ := sim.ParseSequence("0000\n0000")
	faults := fault.CollapsedUniverse(c)
	if len(faults) > GroupSize {
		t.Fatalf("s27 fault list grew past one group (%d faults)", len(faults))
	}
	out := Run(c, seq, faults, Options{Init: logic.X, AbortAfterFirstGroupIfNone: true})
	if out.NumDetected != 0 {
		t.Skip("sequence unexpectedly detects faults; abort path not exercised")
	}
	if out.Aborted {
		t.Fatal("fully simulated single-group run marked Aborted")
	}
}

func TestStopTime(t *testing.T) {
	c := iscas.MustLoad("s27")
	seq, _ := sim.ParseSequence(iscas.S27TestSequence)
	faults := fault.CollapsedUniverse(c)
	full := Run(c, seq, faults, Options{Init: logic.X})
	trunc := Run(c, seq, faults, Options{Init: logic.X, StopTime: 3})
	if trunc.NumDetected >= full.NumDetected {
		t.Fatalf("truncated run detected %d faults, full %d", trunc.NumDetected, full.NumDetected)
	}
	for i := range faults {
		if trunc.Detected[i] && trunc.DetTime[i] >= 3 {
			t.Fatal("detection after StopTime")
		}
		if trunc.Detected[i] && !full.Detected[i] {
			t.Fatal("truncated run detected a fault the full run missed")
		}
	}
}

func TestObserveLines(t *testing.T) {
	c := iscas.MustLoad("s27")
	seq, _ := sim.ParseSequence(iscas.S27TestSequence)
	faults := fault.CollapsedUniverse(c)
	out := Run(c, seq, faults, Options{Init: logic.X, ObserveLines: true})
	for i := range faults {
		if !out.Detected[i] {
			continue
		}
		// A fault detected at a PO must list at least one PO node among its
		// difference lines.
		found := false
		for _, id := range c.Outputs {
			if out.Lines[i].Get(int(id)) {
				found = true
			}
		}
		if !found {
			t.Fatalf("fault %s detected but no PO in its line set", faults[i].String(c))
		}
		// The fault site itself (or downstream) must differ at some point:
		// line set can't be empty for a detected fault.
		if out.Lines[i].Count() == 0 {
			t.Fatalf("fault %s detected with empty line set", faults[i].String(c))
		}
	}
}

func TestObserveLinesMatchesScalar(t *testing.T) {
	p := iscas.Profile{Name: "xo", Inputs: 4, Outputs: 2, DFFs: 3, Gates: 25, Seed: 9, Synthetic: true}
	c, err := iscas.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rng := randutil.New(11)
	seq := sim.RandomSequence(rng, c.NumInputs(), 12)
	faults := fault.CollapsedUniverse(c)
	out := Run(c, seq, faults, Options{Init: logic.Zero, ObserveLines: true})
	good := scalarFaulty(c, seq, nil, logic.Zero)
	for i := range faults {
		bad := scalarFaulty(c, seq, &faults[i], logic.Zero)
		want := NewBitset(len(c.Nodes))
		for u := range good {
			for id := range c.Nodes {
				g, b := good[u][id], bad[u][id]
				if g.IsBinary() && b.IsBinary() && g != b {
					want.Set(id)
				}
			}
		}
		for id := range c.Nodes {
			if want.Get(id) != out.Lines[i].Get(id) {
				t.Fatalf("fault %s node %s: scalar %v vs parallel %v",
					faults[i].String(c), c.Nodes[id].Name, want.Get(id), out.Lines[i].Get(id))
			}
		}
	}
}

func TestBitset(t *testing.T) {
	b := NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Fatal("Get/Set wrong")
	}
	if b.Count() != 3 {
		t.Fatalf("Count = %d", b.Count())
	}
}

func TestGroupMask(t *testing.T) {
	if groupMask(1) != 0b10 {
		t.Fatalf("groupMask(1) = %b", groupMask(1))
	}
	if groupMask(63) != ^uint64(0)&^1 {
		t.Fatalf("groupMask(63) = %x", groupMask(63))
	}
	if groupMask(3) != 0b1110 {
		t.Fatalf("groupMask(3) = %b", groupMask(3))
	}
}

func TestRunReusableSimulator(t *testing.T) {
	// A Simulator must be reusable across runs without state leakage.
	c := iscas.MustLoad("s27")
	s := New(c)
	seq, _ := sim.ParseSequence(iscas.S27TestSequence)
	faults := fault.CollapsedUniverse(c)
	a := s.Run(seq, faults, Options{Init: logic.X})
	b := s.Run(seq, faults, Options{Init: logic.X})
	for i := range faults {
		if a.Detected[i] != b.Detected[i] || a.DetTime[i] != b.DetTime[i] {
			t.Fatalf("run-to-run mismatch on fault %d", i)
		}
	}
}

func TestSaveAndResumeStates(t *testing.T) {
	// Running a prefix with SaveStates then the suffix with InitialStates
	// must detect exactly what one full run detects (for faults undetected
	// by the prefix).
	c := iscas.MustLoad("s298")
	rng := randutil.New(21)
	full := sim.RandomSequence(rng, c.NumInputs(), 60)
	prefix := full.Slice(0, 40)
	suffix := full.Slice(40, 60)
	faults := fault.CollapsedUniverse(c)
	whole := Run(c, full, faults, Options{Init: logic.Zero})
	pre := Run(c, prefix, faults, Options{Init: logic.Zero, SaveStates: true})
	post := Run(c, suffix, faults, Options{InitialStates: pre.FinalStates})
	for i := range faults {
		want := whole.Detected[i]
		got := pre.Detected[i] || post.Detected[i]
		if want != got {
			t.Fatalf("fault %s: whole=%v split=%v (pre=%v post=%v)",
				faults[i].String(c), want, got, pre.Detected[i], post.Detected[i])
		}
		if whole.Detected[i] && !pre.Detected[i] {
			if post.DetTime[i]+prefix.Len() != whole.DetTime[i] {
				t.Fatalf("fault %s: detection time %d+%d != %d",
					faults[i].String(c), post.DetTime[i], prefix.Len(), whole.DetTime[i])
			}
		}
	}
}

func TestSaveStatesShape(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(5), c.NumInputs(), 10)
	out := Run(c, seq, faults, Options{Init: logic.Zero, SaveStates: true})
	st := out.FinalStates
	if st.Len() != len(faults) {
		t.Fatalf("states for %d faults, want %d", st.Len(), len(faults))
	}
	if wantGroups := (len(faults) + GroupSize - 1) / GroupSize; len(st.groups) != wantGroups {
		t.Fatalf("%d state groups, want %d", len(st.groups), wantGroups)
	}
	// Every group simulates its own copy of the fault-free machine.
	good := st.Good(0)
	if len(good) != c.NumDFFs() {
		t.Fatalf("fault-free state has %d values for %d flip-flops", len(good), c.NumDFFs())
	}
	for i := range faults {
		if !slices.Equal(st.Good(i), good) {
			t.Fatalf("fault %d: group's fault-free state %v, group 0's %v", i, st.Good(i), good)
		}
		if len(st.Faulty(i)) != c.NumDFFs() {
			t.Fatalf("fault %d state has %d values for %d flip-flops", i, len(st.Faulty(i)), c.NumDFFs())
		}
	}
}

// TestSelectContinuesSubset saves the states of a whole fault list, selects
// every third fault and continues only those: the continuation must detect
// exactly what an unsplit run over the subset detects, at the same times,
// and end in the same states, for every model and kernel.
func TestSelectContinuesSubset(t *testing.T) {
	c := iscas.MustLoad("s298")
	full := sim.RandomSequence(randutil.New(33), c.NumInputs(), 40)
	prefix, suffix := full.Slice(0, 25), full.Slice(25, 40)
	keep := func(i int) bool { return i%3 == 0 }
	for _, m := range []fault.Model{fault.StuckAt{}, fault.Transition{}, fault.Bridging{}} {
		all := fault.CollapsedUniverseFor(c, m)
		var subset []fault.Fault
		for i, f := range all {
			if keep(i) {
				subset = append(subset, f)
			}
		}
		for _, k := range []Kernel{KernelDense, KernelSlab} {
			label := m.Name() + "/" + k.String()
			whole := Run(c, full, subset, Options{Init: logic.Zero, SaveStates: true, Kernel: k})
			pre := Run(c, prefix, all, Options{Init: logic.Zero, SaveStates: true, Kernel: k})
			st := pre.FinalStates.Select(keep)
			if st.Len() != len(subset) {
				t.Fatalf("%s: selected %d states for %d faults", label, st.Len(), len(subset))
			}
			post := Run(c, suffix, subset, Options{InitialStates: st, TimeOffset: prefix.Len(), SaveStates: true, Workers: 2, Kernel: k})
			for j, f := range subset {
				i := slices.Index(all, f)
				det, at := pre.Detected[i], pre.DetTime[i]
				if !det {
					det, at = post.Detected[j], post.DetTime[j]
				}
				if det != whole.Detected[j] || at != whole.DetTime[j] {
					t.Fatalf("%s: fault %s: split detected=%v t=%d, whole detected=%v t=%d",
						label, f.String(c), det, at, whole.Detected[j], whole.DetTime[j])
				}
			}
			if !reflect.DeepEqual(post.FinalStates, whole.FinalStates) {
				t.Fatalf("%s: continued final states differ from the unsplit run's", label)
			}
		}
	}
}

func TestKernelParseAndString(t *testing.T) {
	cases := []struct {
		in   string
		want Kernel
		ok   bool
	}{
		{"", KernelAuto, true},
		{"auto", KernelAuto, true},
		{"dense", KernelDense, true},
		{"Dense", KernelDense, true},
		{"SLAB", KernelSlab, true},
		{"event", KernelAuto, false}, // deleted; the error names the kernels left
		{"fast", KernelAuto, false},
	}
	for _, tc := range cases {
		k, err := ParseKernel(tc.in)
		if (err == nil) != tc.ok || k != tc.want {
			t.Errorf("ParseKernel(%q) = %v, %v; want %v, ok=%v", tc.in, k, err, tc.want, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "auto, dense or slab") {
			t.Errorf("ParseKernel(%q) error %q does not name the kernels", tc.in, err)
		}
	}
	for _, k := range []Kernel{KernelAuto, KernelDense, KernelSlab} {
		if r, err := ParseKernel(k.String()); err != nil || r != k {
			t.Errorf("ParseKernel(%v.String()) = %v, %v; want round trip", k, r, err)
		}
	}
}

func TestKernelResolve(t *testing.T) {
	t.Setenv("FSIM_KERNEL", "")
	if got := KernelAuto.Resolve(); got != KernelSlab {
		t.Errorf("Resolve with unset env = %v, want slab", got)
	}
	t.Setenv("FSIM_KERNEL", "dense")
	if got := KernelAuto.Resolve(); got != KernelDense {
		t.Errorf("Resolve with FSIM_KERNEL=dense = %v, want dense", got)
	}
	if got := KernelSlab.Resolve(); got != KernelSlab {
		t.Errorf("explicit kernel must beat the environment: got %v", got)
	}
	for _, env := range []string{"nonsense", "event"} {
		t.Setenv("FSIM_KERNEL", env)
		if got := KernelAuto.Resolve(); got != KernelSlab {
			t.Errorf("Resolve with FSIM_KERNEL=%s = %v, want the slab default", env, got)
		}
	}
}
