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

// Pending tracks which of a list of target faults are still undetected
// while windows are applied one after another, each dropping the faults it
// detects.
type Pending struct {
	targets    []fault.Fault
	undetected []bool
	remaining  int
}

// NewPending returns a Pending with every target undetected.
func NewPending(targets []fault.Fault) *Pending {
	p := &Pending{targets: targets, undetected: make([]bool, len(targets)), remaining: len(targets)}
	for i := range p.undetected {
		p.undetected[i] = true
	}
	return p
}

// Remaining is the number of undetected targets.
func (p *Pending) Remaining() int { return p.remaining }

// Undetected is the live mask of undetected targets, indexed like the
// targets; callers read it and change it only through Drop.
func (p *Pending) Undetected() []bool { return p.undetected }

// Drop marks target i detected and reports whether it was undetected.
func (p *Pending) Drop(i int) bool {
	if !p.undetected[i] {
		return false
	}
	p.undetected[i] = false
	p.remaining--
	return true
}

// Simulate runs seq against the undetected targets and drops the ones it
// detects. out is indexed like idx, the ascending target indices of the
// faults simulated; n is the number dropped.
func (p *Pending) Simulate(s *fsim.Simulator, seq *sim.Sequence, opts fsim.Options) (out *fsim.Outcome, idx []int, n int) {
	var fl []fault.Fault
	for i, u := range p.undetected {
		if u {
			fl = append(fl, p.targets[i])
			idx = append(idx, i)
		}
	}
	out = s.Run(seq, fl, opts)
	for k, i := range idx {
		if out.Detected[k] && p.Drop(i) {
			n++
		}
	}
	return out, idx, n
}
