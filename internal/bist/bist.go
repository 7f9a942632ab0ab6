// Package bist closes the self-test loop: the weighted test session produced
// by the core procedure is applied to the circuit under test and the
// responses are compacted in a MISR, exactly as the hardware of the paper's
// Figure 1 plus a standard response compactor would do. Fault coverage is
// then measured the way silicon measures it — by comparing final signatures
// against the fault-free golden signature — and the loss relative to
// per-cycle output comparison (aliasing, unknown-poisoning) is reported.
//
// Every fault-simulation group compacts into its own MISR, so the session
// runs at the caller's Workers like any other fault simulation, and the
// report is identical for every worker count.
package bist

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/misr"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Report is the outcome of a signature-based BIST session.
type Report struct {
	// GoldenSignature is the fault-free signature.
	GoldenSignature uint64
	// SessionLength is the number of test cycles applied.
	SessionLength int
	// ByCompare[i] reports per-cycle output-compare detection of faults[i]
	// (the upper bound a compactor can achieve).
	ByCompare []bool
	// BySignature[i] reports signature-compare detection of faults[i].
	BySignature []bool
	// Aliased counts faults detected by compare whose faulty signature
	// nevertheless equals the golden signature.
	Aliased int
	// Tainted counts faults whose faulty machine produced an unknown output
	// value, making their signature untrustworthy (they are counted as
	// undetected by signature).
	Tainted int
	// NumByCompare and NumBySignature are the detection totals.
	NumByCompare, NumBySignature int
}

// Coverage returns the signature-based coverage.
func (r *Report) Coverage() float64 {
	if len(r.BySignature) == 0 {
		return 1
	}
	return float64(r.NumBySignature) / float64(len(r.BySignature))
}

// RunSession applies the given test session to the circuit, compacting the
// primary outputs into a width-bit MISR per fault-simulation group, and
// returns the signature-based coverage report. The fault groups are
// simulated on workers goroutines (0 or 1: sequentially); the report is the
// same for any count.
func RunSession(c *circuit.Circuit, session *sim.Sequence, faults []fault.Fault,
	init logic.V, width, workers int) (*Report, error) {
	if session.Len() == 0 {
		return nil, fmt.Errorf("bist: empty session")
	}
	// One WordMISR per fault group, built before the run (so a bad width
	// fails even without faults): each hook call shifts only its own group's
	// register, so groups may be simulated concurrently.
	groups := make([]*misr.WordMISR, max(1, (len(faults)+fsim.GroupSize-1)/fsim.GroupSize))
	for g := range groups {
		m, err := misr.NewWord(width)
		if err != nil {
			return nil, err
		}
		groups[g] = m
	}
	hook := func(lo, hi, u int, po []logic.W) {
		groups[lo/fsim.GroupSize].Shift(po)
	}
	out := fsim.Run(c, session, faults, fsim.Options{Init: init, OutputHook: hook, Workers: workers})

	rep := &Report{
		SessionLength: session.Len(),
		ByCompare:     out.Detected,
		BySignature:   make([]bool, len(faults)),
		NumByCompare:  out.NumDetected,
	}
	if sig, ok := groups[0].SlotSignature(0); ok {
		rep.GoldenSignature = sig
	}
	for k := range faults {
		m := groups[k/fsim.GroupSize]
		bit := uint64(1) << uint(k%fsim.GroupSize+1)
		switch {
		case m.TaintMask()&bit != 0:
			rep.Tainted++
		case m.DiffMask()&bit != 0:
			rep.BySignature[k] = true
			rep.NumBySignature++
		case rep.ByCompare[k]:
			rep.Aliased++
		}
	}
	return rep, nil
}

// RunWeightedSession builds the continuous test session of a core result
// (every weight assignment window back to back, as the Figure 1 hardware
// applies it) and measures signature-based coverage of the target faults.
// It records its "bist-session" span under parent (nil: none).
func RunWeightedSession(res *core.Result, omega []core.Assignment, width, workers int, parent *telemetry.Span) (*Report, error) {
	sp := parent.Child("bist-session")
	defer sp.End()
	session := core.ConcatSequence(omega, res.WindowLen())
	return RunSession(res.Circuit, session, res.TargetFaults, res.Init, width, workers)
}
