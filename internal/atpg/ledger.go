package atpg

import (
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/sim"
)

// ledger is what the generator knows about every fault under the sequence
// built so far, carried from phase to phase so that no phase re-simulates a
// prefix: each fault's first detection time, and the exact machine states
// (flip-flops and launch history) at the end of the sequence of the faults
// still in play. A fault stays in play while it is undetected, or while the
// directed trials still target it.
//
// The trial targets are the faults no accepted trial has detected. For
// stuck-at and bridge faults a trial, which starts from the carried
// flip-flop states, detects exactly what the exact continuation detects, so
// the targets are the undetected faults. A trial starts every transition
// fault's launch history at X, though, so the two can disagree: a fault
// stays carried until the exact continuation detects it and stays a target
// until a trial does.
type ledger struct {
	det    []int         // det[i]: first detection time of universe fault i, -1 if undetected
	idx    []int         // universe indices of the faults in play, ascending
	faults []fault.Fault // the faults in play
	target []bool        // target[j]: faults[j] is a trial target
	st     *fsim.States  // the states of faults at the end of the sequence
}

// newLedger starts a ledger from phase 1's outcome over the whole universe.
func newLedger(faults []fault.Fault, out *fsim.Outcome) *ledger {
	l := &ledger{det: append([]int(nil), out.DetTime...)}
	for i, f := range faults {
		if !out.Detected[i] {
			l.idx = append(l.idx, i)
			l.faults = append(l.faults, f)
			l.target = append(l.target, true)
		}
	}
	return l
}

// capture simulates seq once from time 0 over the faults in play, which it
// does not detect, to save their states at its end. It is the only prefix
// simulation of the generator; on cancellation the ledger has no states and
// the caller discards the run.
func (l *ledger) capture(s *fsim.Simulator, seq *sim.Sequence, opts Options) {
	o := s.Run(seq, l.faults, fsim.Options{Init: opts.Init, SaveStates: true, Workers: opts.Workers, Ctx: opts.Ctx})
	if !o.Cancelled() {
		l.st = o.FinalStates
	}
}

// numTargets is the number of trial targets.
func (l *ledger) numTargets() int {
	n := 0
	for _, t := range l.target {
		if t {
			n++
		}
	}
	return n
}

// trialTargets returns the trial targets and the states a trial starts them
// from: the carried flip-flops, with every launch history at X.
func (l *ledger) trialTargets() ([]fault.Fault, *fsim.States) {
	var fs []fault.Fault
	for j, f := range l.faults {
		if l.target[j] {
			fs = append(fs, f)
		}
	}
	return fs, l.st.Select(func(j int) bool { return l.target[j] }).FlipFlops()
}

// dropTargets removes the faults an accepted trial detected (o is the
// trial's outcome over trialTargets) from the trial targets.
func (l *ledger) dropTargets(o *fsim.Outcome) {
	k := 0
	for j, t := range l.target {
		if t {
			if o.Detected[k] {
				l.target[j] = false
			}
			k++
		}
	}
}

// endTrials ends the directed trials: no fault is a trial target any more,
// so commit keeps only the undetected faults in play, and a fault a PODEM
// window detects leaves play.
func (l *ledger) endTrials() {
	for j := range l.target {
		l.target[j] = false
	}
}

// continueWith simulates ext appended to the current sequence over the
// faults in play, continued from their exact states with SaveStates, so
// its detection times count on from the end of the sequence. The outcome is
// what the extended sequence adds; commit takes it over. It returns nil if
// the run was cancelled.
func (l *ledger) continueWith(s *fsim.Simulator, ext *sim.Sequence, opts Options) *fsim.Outcome {
	o := s.Run(ext, l.faults, fsim.Options{
		InitialStates: l.st,
		SaveStates:    true,
		Workers:       opts.Workers,
		Ctx:           opts.Ctx,
	})
	if o.Cancelled() {
		return nil
	}
	return o
}

// commit records the first detections of a continueWith outcome whose
// vectors the caller appends to the sequence, and carries the states of
// the faults that stay in play.
func (l *ledger) commit(o *fsim.Outcome) {
	for j, i := range l.idx {
		if o.Detected[j] && l.det[i] < 0 {
			l.det[i] = o.DetTime[j]
		}
	}
	keep := func(j int) bool { return l.target[j] || l.det[l.idx[j]] < 0 }
	l.st = o.FinalStates.Select(keep)
	n := 0
	for j := range l.idx {
		if keep(j) {
			l.idx[n], l.faults[n], l.target[n] = l.idx[j], l.faults[j], l.target[j]
			n++
		}
	}
	l.idx, l.faults, l.target = l.idx[:n], l.faults[:n], l.target[:n]
}
