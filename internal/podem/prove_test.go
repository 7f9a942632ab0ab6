package podem

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/rcg"
)

// frameWords evaluates one combinational frame of c over every assignment
// of its free variables (the primary inputs, then the flip-flop outputs),
// 64 assignments per word: bit b of word w is assignment 64w+b, whose
// variable j is bit j of that index. With f non-nil the frame carries the
// stuck-at fault f. It returns, per word, the primary-output values followed
// by the values the flip-flops store (their D inputs, with a pin-0 branch
// fault applied). Gates are evaluated with the plain word operators here,
// not with the searcher's evaluator.
func frameWords(c *circuit.Circuit, f *fault.Fault) [][]uint64 {
	vars := c.NumInputs() + c.NumDFFs()
	words := max(1, (1<<vars)/64)
	force := func(stuck uint8) uint64 {
		if stuck == 1 {
			return ^uint64(0)
		}
		return 0
	}
	stem := func(id circuit.NodeID, v uint64) uint64 {
		if f != nil && f.Pin < 0 && f.Node == id {
			return force(f.Stuck)
		}
		return v
	}
	pin := func(vals []uint64, id circuit.NodeID, p int) uint64 {
		if f != nil && f.Pin == p && f.Node == id {
			return force(f.Stuck)
		}
		return vals[c.Nodes[id].Fanins[p]]
	}
	// lowBits[j] holds variable j < 6 across the 64 assignments of a word.
	lowBits := [6]uint64{
		0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
	}
	sources := append(append([]circuit.NodeID(nil), c.Inputs...), c.DFFs...)
	out := make([][]uint64, words)
	vals := make([]uint64, len(c.Nodes))
	for w := range out {
		for j, id := range sources {
			v := uint64(0)
			if j < 6 {
				v = lowBits[j]
			} else if w>>(j-6)&1 == 1 {
				v = ^uint64(0)
			}
			vals[id] = stem(id, v)
		}
		for _, id := range c.Order {
			n := &c.Nodes[id]
			v := pin(vals, id, 0)
			for p := 1; p < len(n.Fanins); p++ {
				x := pin(vals, id, p)
				switch n.Type {
				case circuit.And, circuit.Nand:
					v &= x
				case circuit.Or, circuit.Nor:
					v |= x
				case circuit.Xor, circuit.Xnor:
					v ^= x
				}
			}
			switch n.Type {
			case circuit.Not, circuit.Nand, circuit.Nor, circuit.Xnor:
				v = ^v
			}
			vals[id] = stem(id, v)
		}
		for _, id := range c.Outputs {
			out[w] = append(out[w], vals[id])
		}
		for _, id := range c.DFFs {
			out[w] = append(out[w], pin(vals, id, 0))
		}
	}
	return out
}

// detectable reports whether some one-frame assignment makes the faulty
// frame differ from the good one at a primary output or a stored value.
func detectable(c *circuit.Circuit, good [][]uint64, f fault.Fault) bool {
	valid := ^uint64(0)
	if vars := c.NumInputs() + c.NumDFFs(); vars < 6 {
		valid = 1<<(1<<vars) - 1
	}
	for w, faulty := range frameWords(c, &f) {
		for i, v := range faulty {
			if (v^good[w][i])&valid != 0 {
				return true
			}
		}
	}
	return false
}

// TestProveMatchesEnumeration checks Prove's verdicts against an exhaustive
// enumeration of every one-frame assignment, on s27, s386 and random rcg
// circuits (at most 16 free variables each): no fault proven redundant may
// have a detecting assignment, and every fault called testable must have
// one. The small cap makes searches of testable faults abort, so a Prove
// that reported an aborted search as redundant fails here.
func TestProveMatchesEnumeration(t *testing.T) {
	circuits := []*circuit.Circuit{iscas.MustLoad("s27"), iscas.MustLoad("s386")}
	n := uint64(80)
	if testing.Short() {
		n = 20
	}
	for seed := uint64(1); seed <= n; seed++ {
		circuits = append(circuits, rcg.FromSeed(seed))
	}
	proven, abortedTestable := 0, 0
	for _, c := range circuits {
		if vars := c.NumInputs() + c.NumDFFs(); vars > 16 {
			t.Fatalf("%s: %d free variables, too many to enumerate", c.Name, vars)
		}
		good := frameWords(c, nil)
		for _, f := range fault.Universe(c) {
			want := detectable(c, good, f)
			for _, limit := range []int{2, 5000} {
				switch got := Prove(c, f, limit); {
				case got == Redundant && want:
					t.Errorf("%s: %s proven redundant (cap %d), but a one-frame assignment detects it",
						c.Name, f.String(c), limit)
				case got == Testable && !want:
					t.Errorf("%s: %s called testable (cap %d), but no one-frame assignment detects it",
						c.Name, f.String(c), limit)
				case got == Redundant:
					proven++
				case got == Aborted && want:
					abortedTestable++
				}
			}
		}
	}
	if proven == 0 || abortedTestable == 0 {
		t.Fatalf("sweep too narrow: %d redundant verdicts, %d aborted searches of testable faults",
			proven, abortedTestable)
	}
	t.Logf("%d redundant verdicts, %d aborted searches of testable faults", proven, abortedTestable)
}
