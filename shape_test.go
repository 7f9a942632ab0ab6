package wbist

import (
	"testing"

	"repro/internal/sim"
)

// TestShapeClaims programmatically validates the reproduction claims listed
// in DESIGN.md §4 on a cross-section of the suite (the full suite runs in
// the benchmarks; this test keeps the claims enforced by `go test`).
func TestShapeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-circuit pipeline; skipped in -short mode")
	}
	circuits := []string{"s27", "s208", "s298", "s344", "s386"}
	cfg := Config{LG: 500, Seed: 1}
	for _, name := range circuits {
		r, err := RunCircuit(name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		row := Table6(r)

		// Claim 1: the procedure reaches exactly the coverage of T.
		if row.Coverage != 1.0 {
			t.Errorf("%s: coverage %.4f, want 1.0", name, row.Coverage)
		}
		// Claim 2: max subsequence length is (significantly) shorter than T.
		if row.MaxLen >= row.Len {
			t.Errorf("%s: max subsequence length %d not below |T| = %d", name, row.MaxLen, row.Len)
		}
		// Claim 3: FSM sharing — FSMs ≤ outputs ≤ subsequences.
		if row.FSMs > row.Outputs || row.Outputs > row.Subs {
			t.Errorf("%s: FSM accounting violated: %d FSMs, %d outputs, %d subs",
				name, row.FSMs, row.Outputs, row.Subs)
		}
		// Claim 4: the sequence count is small (units to tens, not hundreds).
		if row.Seq > 200 {
			t.Errorf("%s: %d weight assignments is out of the paper's regime", name, row.Seq)
		}

		// Claims on the observation-point trade-off (Tables 7-16 shape).
		res, err := ObsExperiment(r, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%s: no obs rows", name)
		}
		last := res.Rows[len(res.Rows)-1]
		if last.FE != 100 || last.Obs != 0 {
			t.Errorf("%s: final obs row must be 100%% f.e. with 0 points, got %+v", name, last)
		}
		prevFE := -1.0
		for k, rowO := range res.Rows {
			// f.e. without points increases monotonically with #seq.
			if rowO.FE < prevFE {
				t.Errorf("%s: f.e. decreased at row %d", name, k)
			}
			prevFE = rowO.FE
			// Points can only help.
			if rowO.FEObs < rowO.FE {
				t.Errorf("%s: observation points reduced f.e. at row %d", name, k)
			}
		}
	}
}

// TestGeneratorMatchesSoftwareModelAcrossSuite verifies the Figure 1
// hardware of several circuits cycle-by-cycle (the strongest end-to-end
// check: netlist == algorithm), and that the windows it applies detect
// every target. At L_G 100, s298's |T| exceeds L_G, so its windows must be
// longer than L_G.
func TestGeneratorMatchesSoftwareModelAcrossSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("slow; skipped in -short mode")
	}
	for _, name := range []string{"s27", "s298"} {
		r, err := RunCircuit(name, Config{LG: 100, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		g, err := Synthesize(r)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sw := ConcatSession(r.Compacted, g.LG)
		hw := simulateGenerator(g, sw.Len())
		for u := 0; u < sw.Len(); u++ {
			for i := 0; i < sw.NumInputs; i++ {
				if hw[u][i] != sw.At(u, i) {
					t.Fatalf("%s: generator diverges at t=%d input %d", name, u, i)
				}
			}
		}
		// Each g.LG-cycle window, simulated from reset, drops what it
		// detects; together they must detect every target.
		undetected := len(r.Targets)
		detected := make([]bool, len(r.Targets))
		for _, a := range r.Compacted {
			det, _ := Simulate(r.Circuit, a.GenSequence(g.LG), r.Targets, r.Init)
			for i, d := range det {
				if d && !detected[i] {
					detected[i] = true
					undetected--
				}
			}
		}
		if undetected > 0 {
			t.Errorf("%s: the generator's %d-cycle windows leave %d of %d targets undetected",
				name, g.LG, undetected, len(r.Targets))
		}
	}
}

func simulateGenerator(g *Generator, n int) [][]Value {
	s := sim.New(g.Circuit, Zero)
	out := make([][]Value, n)
	for u := 0; u < n; u++ {
		out[u] = s.Step([]Value{One})
	}
	return out
}
