package fault

import (
	"testing"

	"repro/internal/circuit"
)

// The tables below pin the exact stuck-at collapse output — representative
// identity and order, not just counts — so the FaultModel extraction is
// provably behavior-preserving: any change to the rules, the union-find
// tie-break (smaller universe index wins) or the universe order shows up as
// an exact-string diff here.

// collapseCase builds a circuit and states the exact expected representative
// list of Collapse(c, Universe(c)) in universe order, rendered via
// Fault.String.
type collapseCase struct {
	name  string
	build func() (*circuit.Circuit, error)
	want  []string
}

func twoInputGate(gt circuit.GateType) func() (*circuit.Circuit, error) {
	return func() (*circuit.Circuit, error) {
		b := circuit.NewBuilder("g2")
		b.Input("a")
		b.Input("b")
		b.Gate("g", gt, "a", "b")
		b.Output("g")
		return b.Build()
	}
}

func TestCollapsePinned(t *testing.T) {
	cases := []collapseCase{
		{
			// AND: input s-a-0 ≡ output s-a-0; the input stems (smaller
			// universe indices) survive as representatives.
			name:  "and2",
			build: twoInputGate(circuit.And),
			want:  []string{"a s-a-0", "a s-a-1", "b s-a-1", "g s-a-1"},
		},
		{
			// NAND: input s-a-0 ≡ output s-a-1.
			name:  "nand2",
			build: twoInputGate(circuit.Nand),
			want:  []string{"a s-a-0", "a s-a-1", "b s-a-1", "g s-a-0"},
		},
		{
			// OR: input s-a-1 ≡ output s-a-1.
			name:  "or2",
			build: twoInputGate(circuit.Or),
			want:  []string{"a s-a-0", "a s-a-1", "b s-a-0", "g s-a-0"},
		},
		{
			// NOR: input s-a-1 ≡ output s-a-0.
			name:  "nor2",
			build: twoInputGate(circuit.Nor),
			want:  []string{"a s-a-0", "a s-a-1", "b s-a-0", "g s-a-1"},
		},
		{
			// XOR has no structural equivalences: the whole universe survives.
			name:  "xor2",
			build: twoInputGate(circuit.Xor),
			want: []string{"a s-a-0", "a s-a-1", "b s-a-0", "b s-a-1",
				"g s-a-0", "g s-a-1"},
		},
		{
			// NOT: input s-a-v ≡ output s-a-¬v — both classes land on the input.
			name: "not",
			build: func() (*circuit.Circuit, error) {
				b := circuit.NewBuilder("not")
				b.Input("a")
				b.Gate("n", circuit.Not, "a")
				b.Output("n")
				return b.Build()
			},
			want: []string{"a s-a-0", "a s-a-1"},
		},
		{
			// BUF: input s-a-v ≡ output s-a-v.
			name: "buf",
			build: func() (*circuit.Circuit, error) {
				b := circuit.NewBuilder("buf")
				b.Input("a")
				b.Gate("n", circuit.Buf, "a")
				b.Output("n")
				return b.Build()
			},
			want: []string{"a s-a-0", "a s-a-1"},
		},
		{
			// DFF collapses like BUF across the clock edge.
			name: "dff",
			build: func() (*circuit.Circuit, error) {
				b := circuit.NewBuilder("dff")
				b.Input("a")
				b.DFF("q", "a")
				b.Output("q")
				return b.Build()
			},
			want: []string{"a s-a-0", "a s-a-1"},
		},
		{
			// Fanout: branch faults exist per sink pin; the controlling-value
			// branch fault of each gate collapses into the gate's output fault,
			// the non-controlling branch faults survive individually.
			name: "fanout",
			build: func() (*circuit.Circuit, error) {
				b := circuit.NewBuilder("fan")
				b.Input("a")
				b.Input("b")
				b.Gate("g1", circuit.And, "a", "b")
				b.Gate("g2", circuit.Or, "a", "b")
				b.Output("g1")
				b.Output("g2")
				return b.Build()
			},
			want: []string{
				"a s-a-0", "a s-a-1", "b s-a-0", "b s-a-1",
				"g1 s-a-0", "g1 s-a-1", "g2 s-a-0", "g2 s-a-1",
				"g1.in0(a) s-a-1", "g1.in1(b) s-a-1",
				"g2.in0(a) s-a-0", "g2.in1(b) s-a-0",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.build()
			if err != nil {
				t.Fatal(err)
			}
			reps := Collapse(c, Universe(c))
			got := make([]string, len(reps))
			for i, f := range reps {
				got[i] = f.String(c)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("collapsed = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("collapsed[%d] = %q, want %q (full: %v)", i, got[i], tc.want[i], got)
				}
			}
		})
	}
}
