package core

import (
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/sim"
)

// ConcatSequence builds the single continuous test session the Figure 1
// hardware actually applies: the weighted sequences of all assignments,
// back to back, lg time units each. The circuit under test is NOT reset
// between windows in this mode.
func ConcatSequence(omega []Assignment, lg int) *sim.Sequence {
	if len(omega) == 0 {
		return sim.NewSequence(0)
	}
	out := sim.NewSequence(len(omega[0].Subs))
	for _, a := range omega {
		out.Concat(a.GenSequence(lg))
	}
	return out
}

// ApplyMode selects how the weighted sequences are applied to the circuit.
type ApplyMode int

const (
	// PerWindowReset fault-simulates each assignment's sequence from the
	// initial state (the mode used during weight selection, matching the
	// paper's per-sequence fault simulation).
	PerWindowReset ApplyMode = iota
	// Continuous fault-simulates the concatenation of all windows without
	// intermediate resets (the mode the free-running hardware of Figure 1
	// realises when the circuit is only reset once, at the start of the
	// session).
	Continuous
)

// CoverageReport compares what a set of weight assignments detects.
type CoverageReport struct {
	// Mode is the application mode measured.
	Mode ApplyMode
	// Detected[i] reports detection of targets[i].
	Detected []bool
	// NumDetected counts detections.
	NumDetected int
	// TotalCycles is the number of test cycles applied.
	TotalCycles int
}

// Coverage returns the detected fraction.
func (r *CoverageReport) Coverage() float64 {
	if len(r.Detected) == 0 {
		return 1
	}
	return float64(r.NumDetected) / float64(len(r.Detected))
}

// MeasureCoverage fault-simulates omega's sequences against the target
// faults in the given application mode. In PerWindowReset mode faults are
// dropped across windows; in Continuous mode the whole session is one
// simulation.
func MeasureCoverage(res *Result, omega []Assignment, mode ApplyMode) *CoverageReport {
	lg := res.Options.LG
	if lg == 0 {
		lg = 2000
	}
	for _, dt := range res.DetTime {
		if dt+1 > lg {
			lg = dt + 1
		}
	}
	rep := &CoverageReport{
		Mode:     mode,
		Detected: make([]bool, len(res.TargetFaults)),
	}
	simulator := fsim.New(res.Circuit)
	switch mode {
	case Continuous:
		seq := ConcatSequence(omega, lg)
		rep.TotalCycles = seq.Len()
		out := simulator.Run(seq, res.TargetFaults, fsim.Options{Init: res.Options.Init, Workers: res.Options.Workers})
		copy(rep.Detected, out.Detected)
		rep.NumDetected = out.NumDetected
	default:
		for _, a := range omega {
			var fl []fault.Fault
			var idx []int
			for i, d := range rep.Detected {
				if !d {
					fl = append(fl, res.TargetFaults[i])
					idx = append(idx, i)
				}
			}
			if len(fl) == 0 {
				break
			}
			out := simulator.Run(a.GenSequence(lg), fl, fsim.Options{Init: res.Options.Init, Workers: res.Options.Workers})
			for k := range fl {
				if out.Detected[k] {
					rep.Detected[idx[k]] = true
					rep.NumDetected++
				}
			}
			rep.TotalCycles += lg
		}
	}
	return rep
}
