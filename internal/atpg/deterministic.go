package atpg

import (
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/podem"
	"repro/internal/sim"
)

// deterministicPhase attacks still-undetected faults with bounded sequential
// PODEM searches. Every search starts from the exact good and faulty machine
// states the ledger carries for the end of the current sequence, so a found
// window is simply appended. Each window is verified before it is accepted:
// it is simulated once from the carried states of every fault in play, and
// accepted if and only if that run detects the target; the same run carries
// the ledger forward.
func deterministicPhase(c *circuit.Circuit, s *fsim.Simulator, seq *sim.Sequence, l *ledger, opts Options) *sim.Sequence {
	l.endTrials()
	tried := make(map[fault.Fault]bool)
	budget := opts.PodemTargets
	for budget > 0 && len(l.faults) > 0 && !ctxDone(opts.Ctx) {
		progressed := false
		for j, f := range l.faults {
			if tried[f] || budget <= 0 {
				continue
			}
			tried[f] = true
			budget--
			res, err := podem.FindTest(c, f, l.st.Good(j), l.st.Faulty(j), podem.Options{
				Frames: opts.PodemFrames,
			})
			if err != nil || !res.Found {
				continue
			}
			o := l.continueWith(s, res.Seq, seq.Len(), opts)
			if o == nil {
				return seq // cancelled; the caller discards the run
			}
			if !o.Detected[j] {
				continue
			}
			l.commit(o)
			seq.Concat(res.Seq)
			progressed = true
			break // rescan the faults still in play
		}
		if !progressed {
			break
		}
	}
	return seq
}
