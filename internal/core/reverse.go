package core

import "repro/internal/fsim"

// ReverseOrderCompact implements the postprocessing of Section 4.3: the
// weight assignments in omega are fault-simulated in reverse order of
// generation; an assignment is kept only if its sequence detects at least
// one fault not detected by the assignments processed before it (i.e.
// generated after it). The surviving assignments are returned in their
// original relative order.
//
// Each assignment's sequence is r.WindowLen() cycles long, so every window
// reaches the detection time of the latest target.
func ReverseOrderCompact(r *Result, workers int) []Assignment {
	simulator := fsim.New(r.Circuit)
	pend := NewPending(r.TargetFaults)
	keep := make([]bool, len(r.Omega))
	for j := len(r.Omega) - 1; j >= 0 && pend.Remaining() > 0; j-- {
		seq := r.Omega[j].GenSequence(r.windowLen)
		_, _, n := pend.Simulate(simulator, seq, fsim.Options{Init: r.Init, Workers: workers})
		keep[j] = n > 0
	}
	var out []Assignment
	for j, k := range keep {
		if k {
			out = append(out, r.Omega[j])
		}
	}
	return out
}

// DetectionSets fault-simulates every assignment's sequence against all
// target faults (no dropping across assignments) and returns, per
// assignment, the bitset of detected target-fault indices. This is the input
// to the observation-point experiment's greedy selection (Section 5).
func DetectionSets(r *Result, workers int) []fsim.Bitset {
	simulator := fsim.New(r.Circuit)
	sets := make([]fsim.Bitset, len(r.Omega))
	for j := range r.Omega {
		seq := r.Omega[j].GenSequence(r.windowLen)
		out := simulator.Run(seq, r.TargetFaults, fsim.Options{Init: r.Init, Workers: workers})
		b := fsim.NewBitset(len(r.TargetFaults))
		for i := range r.TargetFaults {
			if out.Detected[i] {
				b.Set(i)
			}
		}
		sets[j] = b
	}
	return sets
}
