package fsim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/rcg"
	"repro/internal/sim"
)

// TestBuildConePure is the purity property the shared output cone rests on:
// computing the detectable nodes twice for the same circuit yields deeply
// equal results, every pooled worker reads the receiver's slice, and
// running simulations (both kernels, every fault model, sequential and
// parallel) leaves it untouched.
func TestBuildConePure(t *testing.T) {
	for _, seed := range []uint64{3, 77, 512} {
		c := rcg.FromSeed(seed)
		if a, b := detectableNodes(c), detectableNodes(c); !reflect.DeepEqual(a, b) {
			t.Fatalf("rcg seed %d: two cone builds differ", seed)
		}
	}
	c := iscas.MustLoad("s298")
	s := New(c)
	snapshot := detectableNodes(c)
	if !reflect.DeepEqual(s.detectable, snapshot) {
		t.Fatalf("simulator cone differs from a fresh build")
	}
	rng := randutil.New(0xc0e)
	seq := sim.RandomSequence(rng, c.NumInputs(), 20)
	for _, name := range fault.ModelNames() {
		m, err := fault.ModelByName(name)
		if err != nil {
			t.Fatal(err)
		}
		faults := fault.CollapsedUniverseFor(c, m)
		for _, k := range []Kernel{KernelDense, KernelSlab} {
			for _, workers := range []int{1, 4} {
				s.Run(seq, faults, Options{Init: logic.Zero, Workers: workers, Kernel: k,
					SaveStates: true, ObserveLines: true})
			}
		}
	}
	if !reflect.DeepEqual(s.detectable, snapshot) {
		t.Fatalf("running simulations mutated the shared cone")
	}
	for _, w := range s.pool {
		if &w.detectable[0] != &s.detectable[0] {
			t.Fatalf("worker %d does not share the receiver's cone", w.worker)
		}
	}
}

// TestSkipFault pins which faults the repeat exit skips on a hand-built
// circuit with a dangling cone: u and w can never reach the primary output
// z, but u feeds the flip-flop's next state while w feeds nothing at all.
// A fault is skipped (its slot is not watched) exactly when none of its
// sites reaches a primary output; feeding state does not count, since a
// machine that differs only in unobservable state is never detected.
func TestSkipFault(t *testing.T) {
	c, err := bench.Parse("skipnet", strings.NewReader(`
INPUT(a)
INPUT(b)
OUTPUT(z)
z = AND(a, b)
u = OR(a, b)
d1 = DFF(u)
w = NOT(d1)
`))
	if err != nil {
		t.Fatal(err)
	}
	s := New(c)
	id := func(name string) circuit.NodeID {
		n, ok := c.Lookup(name)
		if !ok {
			t.Fatalf("no node %q", name)
		}
		return n
	}
	stem := func(name string) fault.Fault { return fault.Fault{Node: id(name), Pin: -1} }
	bridge := func(a, b string) fault.Fault {
		return fault.Fault{Node: id(a), Node2: id(b), Pin: -1, Kind: fault.KindBridge}
	}
	rise := stem("w")
	rise.Kind = fault.KindTransition
	cases := []struct {
		label string
		f     fault.Fault
		want  bool
	}{
		{"detectable site never skips", stem("z"), false},
		{"detectable input never skips", stem("a"), false},
		{"dangling cone skips", stem("w"), true},
		{"state-feeding site skips", stem("u"), true},
		{"DFF pin fault skips", fault.Fault{Node: id("d1"), Pin: 0}, true},
		{"transition fault in the dangling cone skips", rise, true},
		{"bridge with one detectable stem never skips", bridge("w", "z"), false},
		{"bridge inside the dangling cone skips", bridge("u", "w"), true},
	}
	for _, tc := range cases {
		got := s.repeatSlots([]fault.Fault{tc.f})&2 == 0
		if got != tc.want {
			t.Errorf("%s: skipped = %v, want %v", tc.label, got, tc.want)
		}
	}
}
