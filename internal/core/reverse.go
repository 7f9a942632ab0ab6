package core

import (
	"repro/internal/fault"
	"repro/internal/fsim"
)

// ReverseOrderCompact implements the postprocessing of Section 4.3: the
// weight assignments in omega are fault-simulated in reverse order of
// generation; an assignment is kept only if its sequence detects at least
// one fault not detected by the assignments processed before it (i.e.
// generated after it). The surviving assignments are returned in their
// original relative order.
//
// detTime must hold the detection time of each target under T; it is used to
// size each assignment's sequence exactly as during generation (LG raised to
// u+1 for the latest target).
func ReverseOrderCompact(r *Result) []Assignment {
	lg := r.Options.LG
	if lg == 0 {
		lg = 2000
	}
	maxU := 0
	for _, dt := range r.DetTime {
		if dt > maxU {
			maxU = dt
		}
	}
	if lg < maxU+1 {
		lg = maxU + 1
	}
	simulator := fsim.New(r.Circuit)
	undetected := make([]bool, len(r.TargetFaults))
	for i := range undetected {
		undetected[i] = true
	}
	remaining := len(r.TargetFaults)
	keep := make([]bool, len(r.Omega))
	for j := len(r.Omega) - 1; j >= 0 && remaining > 0; j-- {
		var fl []fault.Fault
		var idx []int
		for i, u := range undetected {
			if u {
				fl = append(fl, r.TargetFaults[i])
				idx = append(idx, i)
			}
		}
		seq := r.Omega[j].GenSequence(lg)
		out := simulator.Run(seq, fl, fsim.Options{Init: r.Options.Init, Workers: r.Options.Workers, Kernel: r.Options.Kernel, SlabLanes: r.Options.SlabLanes})
		n := 0
		for k := range fl {
			if out.Detected[k] {
				undetected[idx[k]] = false
				remaining--
				n++
			}
		}
		if n > 0 {
			keep[j] = true
		}
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
func DetectionSets(r *Result) []fsim.Bitset {
	lg := r.Options.LG
	if lg == 0 {
		lg = 2000
	}
	maxU := 0
	for _, dt := range r.DetTime {
		if dt > maxU {
			maxU = dt
		}
	}
	if lg < maxU+1 {
		lg = maxU + 1
	}
	simulator := fsim.New(r.Circuit)
	sets := make([]fsim.Bitset, len(r.Omega))
	for j := range r.Omega {
		seq := r.Omega[j].GenSequence(lg)
		out := simulator.Run(seq, r.TargetFaults, fsim.Options{Init: r.Options.Init, Workers: r.Options.Workers, Kernel: r.Options.Kernel, SlabLanes: r.Options.SlabLanes})
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
