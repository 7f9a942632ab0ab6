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
//
// A target that podem.Prove shows redundant in one frame is charged to the
// budget but not searched: no sequence from the shared initial state
// detects it, so no window could pass that verification, and skipping the
// search leaves the sequence unchanged.
func deterministicPhase(c *circuit.Circuit, s *fsim.Simulator, seq *sim.Sequence, l *ledger, opts Options) *sim.Sequence {
	l.endTrials()
	tried := make(map[fault.Fault]bool)
	budget := podemTargets
	for budget > 0 && len(l.faults) > 0 && !ctxDone(opts.Ctx) {
		progressed := false
		for j, f := range l.faults {
			if tried[f] || budget <= 0 {
				continue
			}
			tried[f] = true
			budget--
			if podem.Prove(c, f, proofBacktracks) == podem.Redundant {
				continue
			}
			res, err := podem.FindTest(c, f, l.st.Good(j), l.st.Faulty(j), podem.Options{
				Frames: podemFrames,
			})
			if err != nil || !res.Found {
				continue
			}
			o := l.continueWith(s, res.Seq, opts)
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
