package fault

import (
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/iscas"
)

func TestUniverseCounts(t *testing.T) {
	// toy: a,b inputs; g = AND(a,b); out PO. 3 nodes, no multi-fanout.
	b := circuit.NewBuilder("toy")
	b.Input("a")
	b.Input("b")
	b.Gate("g", circuit.And, "a", "b")
	b.Output("g")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	u := Universe(c)
	if len(u) != 6 { // 3 stems x 2 polarities, no branches
		t.Fatalf("universe size %d, want 6", len(u))
	}
}

func TestUniverseBranchFaults(t *testing.T) {
	// a drives two gates -> branch faults appear on both pins.
	b := circuit.NewBuilder("fan")
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
	u := Universe(c)
	// stems: 4 nodes x 2 = 8. a and b both have fanout 2 -> 2 pins x 2 gates x 2 pol = 8.
	if len(u) != 16 {
		t.Fatalf("universe size %d, want 16", len(u))
	}
	branches := 0
	for _, f := range u {
		if f.Pin >= 0 {
			branches++
		}
	}
	if branches != 8 {
		t.Fatalf("branch faults %d, want 8", branches)
	}
}

func TestCollapseAndGate(t *testing.T) {
	// AND(a,b): a s-a-0, b s-a-0 and g s-a-0 collapse into one class.
	b := circuit.NewBuilder("and")
	b.Input("a")
	b.Input("b")
	b.Gate("g", circuit.And, "a", "b")
	b.Output("g")
	c, _ := b.Build()
	reps := CollapsedUniverse(c)
	// Universe: 6. Merges: a0≡g0, b0≡g0 -> 2 merges -> 4 classes.
	if len(reps) != 4 {
		t.Fatalf("collapsed size %d, want 4", len(reps))
	}
}

func TestCollapseInverterChain(t *testing.T) {
	// a -> NOT n1 -> NOT n2 (PO): everything collapses to 2 classes.
	b := circuit.NewBuilder("chain")
	b.Input("a")
	b.Gate("n1", circuit.Not, "a")
	b.Gate("n2", circuit.Not, "n1")
	b.Output("n2")
	c, _ := b.Build()
	reps := CollapsedUniverse(c)
	if len(reps) != 2 {
		t.Fatalf("collapsed size %d, want 2", len(reps))
	}
}

func TestCollapseXorKeepsAll(t *testing.T) {
	b := circuit.NewBuilder("xor")
	b.Input("a")
	b.Input("b")
	b.Gate("g", circuit.Xor, "a", "b")
	b.Output("g")
	c, _ := b.Build()
	reps := CollapsedUniverse(c)
	if len(reps) != 6 {
		t.Fatalf("collapsed size %d, want 6 (XOR has no equivalences)", len(reps))
	}
}

func TestCollapseS27(t *testing.T) {
	c := iscas.MustLoad("s27")
	u := Universe(c)
	reps := Collapse(c, u)
	// 17 nodes -> 34 stem faults; branches on G14(2 sinks), G8(2), G11(3),
	// G12(2) -> 18 branch faults -> 52 total.
	if len(u) != 52 {
		t.Fatalf("s27 universe %d, want 52", len(u))
	}
	// 26 structural merges (hand-counted in the test comment below) -> 26.
	// AND G8: 2; OR G15: 2; OR G16: 2; NAND G9: 2; NOR G10,G11,G12,G13: 8;
	// NOT G14, G17: 4; DFF G5,G6,G7: 6. Total 26 merges.
	if len(reps) != 26 {
		t.Fatalf("s27 collapsed %d, want 26", len(reps))
	}
	// Representatives must be unique and drawn from the universe.
	seen := map[Fault]bool{}
	idx := map[Fault]bool{}
	for _, f := range u {
		idx[f] = true
	}
	for _, f := range reps {
		if seen[f] {
			t.Fatalf("duplicate representative %v", f.String(c))
		}
		seen[f] = true
		if !idx[f] {
			t.Fatalf("representative %v not in universe", f.String(c))
		}
	}
}

func TestFaultString(t *testing.T) {
	c := iscas.MustLoad("s27")
	g8, _ := c.Lookup("G8")
	f := Fault{Node: g8, Pin: -1, Stuck: 0}
	if got := f.String(c); got != "G8 s-a-0" {
		t.Fatalf("String = %q", got)
	}
	fb := Fault{Node: g8, Pin: 1, Stuck: 1}
	if got := fb.String(c); !strings.Contains(got, "G8.in1") || !strings.Contains(got, "s-a-1") {
		t.Fatalf("String = %q", got)
	}
}

func TestUniverseDeterministic(t *testing.T) {
	c := iscas.MustLoad("s27")
	a, b := Universe(c), Universe(c)
	if len(a) != len(b) {
		t.Fatal("sizes differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("order differs")
		}
	}
}
