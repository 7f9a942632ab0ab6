// full_selftest: the complete on-chip self-test architecture in one netlist.
//
// This example assembles everything the repository builds into the structure
// a chip would actually carry:
//
//	┌───────────────────────────┐      ┌─────────┐      ┌────────┐
//	│ test generator (Figure 1) │ ───► │   CUT   │ ───► │  MISR  │
//	│  weight FSMs + counter    │      │ (s298)  │      │ 16-bit │
//	└───────────────────────────┘      └─────────┘      └────────┘
//
// The generator is synthesized to gates and *composed* with the circuit
// under test into a single netlist whose only input is the BIST enable; the
// session is simulated cycle-accurately, responses are compacted in a MISR,
// and fault coverage is measured the way silicon measures it — by comparing
// final signatures. The report also quantifies what signature compaction
// costs versus per-cycle output compare (aliasing).
//
//	go run ./examples/full_selftest
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/bist"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/sim"
)

func main() {
	const misrWidth = 16

	// 1. Run the pipeline and synthesize the generator hardware.
	cfg := wbist.Config{LG: 300, Seed: 3}
	run, err := wbist.RunCircuit("s298", cfg)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := wbist.Synthesize(run)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CUT %s: %s\n", run.Name, run.Circuit.Stats())
	fmt.Printf("generator: %d gates, %d flip-flops for %d weight assignments\n",
		gen.NumGates, gen.NumDFFs, gen.NumAssignments)

	// 2. Compose generator and CUT into one netlist.
	chip, err := wbist.Compose("chip", gen.Circuit, run.Circuit)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("composed chip: %s\n", chip.Stats())

	// 3. Simulate the whole chip from reset with EN=1 and check its outputs
	// equal the software session the generator is supposed to apply.
	session := wbist.ConcatSession(run.Compacted, gen.LG)
	s := sim.New(chip, wbist.Zero)
	cutOnly := sim.New(run.Circuit, wbist.Zero)
	mismatch := 0
	for u := 0; u < session.Len(); u++ {
		chipOut := s.Step([]wbist.Value{wbist.One})
		wantOut := cutOnly.Step(session.Vecs[u])
		for k := range chipOut {
			if chipOut[k] != wantOut[k] {
				mismatch++
			}
		}
	}
	fmt.Printf("chip vs software-session outputs over %d cycles: %d mismatches\n",
		session.Len(), mismatch)
	if mismatch > 0 {
		log.Fatal("composed chip diverged from the software model")
	}

	// 4. Signature-based self-test: the session's responses compacted in a
	// MISR, fault coverage measured by signature compare. Faults live on the
	// CUT portion of the composed chip.
	cutFaults := cutFaultsOf(chip)
	rep, err := bist.RunSession(cfg.Ctx, chip, enSession(session.Len()), cutFaults, wbist.Zero, misrWidth, cfg.Workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nself-test session: %d cycles, golden signature %0*x\n",
		rep.SessionLength, (misrWidth+3)/4, rep.GoldenSignature)
	fmt.Printf("CUT faults in composed chip: %d\n", len(cutFaults))
	fmt.Printf("detected by per-cycle compare: %d (%.1f%%)\n",
		rep.NumByCompare, pct(rep.NumByCompare, len(cutFaults)))
	fmt.Printf("detected by signature:         %d (%.1f%%), %d aliased, %d tainted\n",
		rep.NumBySignature, pct(rep.NumBySignature, len(cutFaults)), rep.Aliased, rep.Tainted)
}

// cutFaultsOf restricts the collapsed fault universe of the composed chip to
// the CUT portion (nodes with the "c_" prefix that Compose applies).
func cutFaultsOf(chip *wbist.Circuit) []wbist.Fault {
	all := fault.CollapsedUniverse(chip)
	var out []wbist.Fault
	for _, f := range all {
		if len(chip.Nodes[f.Node].Name) > 2 && chip.Nodes[f.Node].Name[:2] == "c_" {
			out = append(out, f)
		}
	}
	return out
}

// enSession is the composed chip's input sequence: EN held at 1.
func enSession(n int) *sim.Sequence {
	seq := sim.NewSequence(1)
	for u := 0; u < n; u++ {
		seq.Append([]wbist.Value{wbist.One})
	}
	return seq
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

var _ = circuit.Input
