package core

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/lfsr"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Options tune the weight-assignment selection procedure of Section 4.2.
// The zero value selects the paper's configuration.
type Options struct {
	// LG is the length of the test sequence generated per weight assignment
	// (the paper uses 2000). It is raised internally to u+1 when targeting a
	// fault detected at time u, so the reproduction guarantee always holds;
	// Result.WindowLen is the window length every later stage applies.
	LG int
	// Init is the initial flip-flop value used during fault simulation.
	Init logic.V
	// NoSampleFirst disables the simulation-effort reduction of Section
	// 4.2, which is on by default: each candidate sequence first simulates
	// one fault group holding the target fault plus a random sample; if
	// nothing in that group is detected, the remaining groups are skipped.
	// (Ablation; a negative switch so the zero value is the paper's
	// configuration.)
	NoSampleFirst bool
	// NoForceFullLength disables the Section 4.1 modification that prepends
	// a full-length subsequence to each A_i when no full-length assignment
	// exists. (Ablation; with the modification off, a fault that no candidate
	// assignment detects is abandoned once L_S reaches its detection time.)
	NoForceFullLength bool
	// NoMatchOrdering disables sorting A_i by n_m (ablation): entries stay in
	// weight-set order.
	NoMatchOrdering bool
	// RandomWindows applies this many windows of pure pseudo-random
	// patterns (from an on-chip-realisable XNOR LFSR reset to zero) before
	// the weight selection, dropping the faults they detect. This is the
	// extension named as future work in the paper's conclusion: random
	// windows soak up the easy faults so fewer subsequences need generating.
	// Each window is Result.WindowLen cycles long, as in the generator.
	RandomWindows int
	// Seed drives the fault sampling.
	Seed uint64
	// Workers is the fault-simulation worker count handed to fsim (0 or 1 =
	// sequential), and the number of candidate weight assignments evaluated
	// at once (fsim.Speculate). Results are bit-identical for any value; it
	// only changes wall-clock time.
	Workers int
	// Ctx, if non-nil, cancels the procedure: it is checked once per
	// candidate simulation (and threaded into fsim, which stops claiming
	// fault groups), so Run returns ctx.Err() promptly instead of finishing
	// the selection. A nil Ctx never cancels.
	Ctx context.Context
	// Span, when non-nil, is the parent telemetry span under which the
	// procedure records its phases ("core" with "random-windows" and
	// "selection" children). Later pipeline stages (obs, bist) also hang
	// their spans off it via the Result's echoed Options.
	Span *telemetry.Span
}

func (o *Options) fill() {
	if o.LG == 0 {
		o.LG = 2000
	}
}

// Trace records one accepted weight assignment for reporting.
type Trace struct {
	// U is the detection time the assignment was built around.
	U int
	// LS is the maximum subsequence length allowed when it was built.
	LS int
	// J is the candidate index within the A_i sets.
	J int
	// Assignment is the accepted weight assignment.
	Assignment Assignment
	// NewlyDetected is the number of target faults it newly detected.
	NewlyDetected int
	// NewFaults lists the indices (into Result.TargetFaults) of the target
	// faults this assignment newly detected, ascending. NewDetTimes[k] is the
	// detection time of NewFaults[k] under the assignment's own sequence —
	// the per-assignment provenance behind the Table 6 accounting.
	NewFaults   []int
	NewDetTimes []int
}

// Result is the outcome of the selection procedure.
type Result struct {
	// Circuit is the circuit under test.
	Circuit *circuit.Circuit
	// T is the deterministic test sequence that guided the selection.
	T *sim.Sequence
	// TargetFaults are the faults detected by T (the procedure's targets).
	TargetFaults []fault.Fault
	// DetTime[i] is the detection time of TargetFaults[i] under T.
	DetTime []int
	// Omega is the selected weight assignments in generation order (before
	// reverse-order simulation).
	Omega []Assignment
	// Traces parallels Omega with bookkeeping for reports.
	Traces []Trace
	// S is the weight set accumulated by the procedure.
	S *WeightSet
	// Unreproduced counts target faults abandoned because no candidate
	// assignment detected them (possible only with NoForceFullLength).
	Unreproduced int
	// RandomDetected counts target faults detected by the pseudo-random
	// windows (only with Options.RandomWindows > 0); they need no weight
	// assignment.
	RandomDetected int
	// RandomSourceWidth is the LFSR width used for the random windows
	// (0 when RandomWindows is 0).
	RandomSourceWidth int
	// SimulatedSequences counts the candidate sequences fault-simulated.
	SimulatedSequences int
	// Options echoes the configuration used.
	Options Options

	windowLen int
}

// WindowLen is the number of cycles each weight assignment (and each
// pseudo-random window) is applied for: Options.LG, raised to the latest
// target's detection time + 1. Every stage after the selection — reverse-order
// pruning, the observation-point experiment, the BIST session, the traces and
// the synthesized generator — applies windows of this length, so that what
// they verify is what the hardware applies.
func (r *Result) WindowLen() int { return r.windowLen }

// windowLen is the length of a window that reaches every detection time in
// us: lg, raised to the latest u + 1.
func windowLen(lg int, us ...int) int {
	for _, u := range us {
		lg = max(lg, u+1)
	}
	return lg
}

// Coverage returns the fraction of target faults detected by Omega's
// sequences (1.0 unless faults were abandoned).
func (r *Result) Coverage() float64 {
	if len(r.TargetFaults) == 0 {
		return 1
	}
	return 1 - float64(r.Unreproduced)/float64(len(r.TargetFaults))
}

// Run executes the overall procedure of Section 4.2: starting from the
// faults detected by T, it repeatedly targets the largest remaining
// detection time u, extends the weight set S with subsequences of growing
// length L_S that reproduce the tails of T ending at u, builds the sets A_i,
// generates candidate weight assignments, fault-simulates their sequences
// and keeps the useful ones, until every target fault is detected.
func Run(c *circuit.Circuit, t *sim.Sequence, targets []fault.Fault, detTime []int, opts Options) (*Result, error) {
	opts.fill()
	if len(targets) != len(detTime) {
		return nil, fmt.Errorf("core: %d targets but %d detection times", len(targets), len(detTime))
	}
	if t.NumInputs != c.NumInputs() {
		return nil, fmt.Errorf("core: sequence width %d for circuit with %d inputs", t.NumInputs, c.NumInputs())
	}
	for i, dt := range detTime {
		if dt < 0 || dt >= t.Len() {
			return nil, fmt.Errorf("core: target fault %d has detection time %d outside T (len %d)", i, dt, t.Len())
		}
	}
	res := &Result{
		Circuit:      c,
		T:            t,
		TargetFaults: targets,
		DetTime:      detTime,
		S:            NewWeightSet(),
		Options:      opts,
		windowLen:    windowLen(opts.LG, detTime...),
	}
	span := opts.Span.Child("core")
	defer span.End()
	rng := randutil.New(opts.Seed ^ 0x5eed)
	simulator := fsim.New(c)

	// Input projections of T, computed once.
	ti := make([][]logic.V, c.NumInputs())
	for i := range ti {
		ti[i] = t.Input(i)
	}

	pend := NewPending(targets)
	undetected := pend.Undetected()

	// Optional pseudo-random phase (the paper's stated future-work
	// extension): free-running XNOR-LFSR windows drop the random-testable
	// faults before any weights are selected.
	if opts.RandomWindows > 0 && pend.Remaining() > 0 {
		rsp := span.Child("random-windows")
		res.RandomSourceWidth = lfsr.RandomSourceWidth(c.NumInputs())
		src, err := lfsr.NewXNOR(res.RandomSourceWidth)
		if err != nil {
			return nil, err
		}
		for w := 0; w < opts.RandomWindows && pend.Remaining() > 0; w++ {
			if err := ctxErr(opts.Ctx); err != nil {
				rsp.End()
				return nil, err
			}
			seq := src.ParallelSequence(c.NumInputs(), res.windowLen)
			_, _, n := pend.Simulate(simulator, seq, fsim.Options{Init: opts.Init, Workers: opts.Workers, Ctx: opts.Ctx})
			res.SimulatedSequences++
			telemetry.Add(telemetry.CtrCandidates, 1)
			res.RandomDetected += n
		}
		rsp.End()
	}

	// prepare orders the remaining faults for candidate a (target fault
	// first, then a random sample, then the rest), drawing the order from
	// rng.
	prepare := func(a Assignment, lg, targetIdx int) *candidate {
		order := make([]int, 0, pend.Remaining())
		order = append(order, targetIdx)
		var rest []int
		for i, u := range undetected {
			if u && i != targetIdx {
				rest = append(rest, i)
			}
		}
		// Random sample joins the first group alongside the target fault.
		perm := rng.Perm(len(rest))
		for _, k := range perm {
			order = append(order, rest[k])
		}
		fl := make([]fault.Fault, len(order))
		for k, i := range order {
			fl[k] = targets[i]
		}
		return &candidate{a: a, lg: lg, order: order, faults: fl, rng: *rng}
	}

	// simulate generates a candidate's sequence and runs it against its
	// fault order. With sampleFirst, group 0 (target fault + sample) always
	// runs alone; only a detecting candidate pays for the remaining groups,
	// and a zero-detection candidate is rejected.
	simulate := func(ws *fsim.Simulator, cd *candidate) *fsim.Outcome {
		cd.out = ws.Run(cd.a.GenSequence(cd.lg), cd.faults, fsim.Options{
			Init:                       opts.Init,
			AbortAfterFirstGroupIfNone: !opts.NoSampleFirst,
			Workers:                    opts.Workers,
			Ctx:                        opts.Ctx,
		})
		return cd.out
	}

	// drop drops a simulated candidate's detections. It returns the newly
	// detected faults (ascending target indices) with their detection times
	// under the candidate sequence.
	drop := func(cd *candidate) (newFaults, newTimes []int) {
		res.SimulatedSequences++
		telemetry.Add(telemetry.CtrCandidates, 1)
		for k := range cd.faults {
			if cd.out.Detected[k] && pend.Drop(cd.order[k]) {
				newFaults = append(newFaults, cd.order[k])
				newTimes = append(newTimes, cd.out.DetTime[k])
			}
		}
		// The scan above follows the shuffled simulation order; reports want
		// ascending target indices.
		sort.Sort(&faultTimePairs{newFaults, newTimes})
		return newFaults, newTimes
	}

	// maxDetTime returns the index of an undetected fault with the largest
	// detection time, or -1.
	maxDetTime := func() int {
		best, bestIdx := -1, -1
		for i, u := range undetected {
			if u && detTime[i] > best {
				best = detTime[i]
				bestIdx = i
			}
		}
		return bestIdx
	}

	anyAtTime := func(u int) int {
		for i, und := range undetected {
			if und && detTime[i] == u {
				return i
			}
		}
		return -1
	}

	// level extends S with the derived subsequences of length ls ending at
	// u, builds the sets A_i from S and returns them with the bound on the
	// candidate index j.
	level := func(u, ls int) ([][]AiEntry, int) {
		for i := range ti {
			if alpha, ok := DeriveWeight(ti[i], u, ls); ok {
				res.S.Add(alpha)
			}
		}
		ai := make([][]AiEntry, len(ti))
		for i := range ti {
			ai[i] = BuildAi(res.S.Subs, ti[i], u, ls)
			if opts.NoMatchOrdering {
				ai[i] = unsortedAi(res.S.Subs, ti[i], u, ls)
			}
		}
		// Section 4.1 modification: ensure a full-length assignment exists
		// at some candidate index.
		if !opts.NoForceFullLength && !fullLengthAligned(ai, ls) {
			for i := range ai {
				ai[i] = prependFullLength(ai[i], ls)
			}
		}
		maxJ := 0
		for i := range ai {
			if len(ai[i]) > maxJ {
				maxJ = len(ai[i])
			}
		}
		return ai, maxJ
	}

	ssp := span.Child("selection")
	for pend.Remaining() > 0 {
		if err := ctxErr(opts.Ctx); err != nil {
			ssp.End()
			return nil, err
		}
		fIdx := maxDetTime()
		u := detTime[fIdx]
		// The candidates (ls, j) at detection time u, for ls = 1, 2, ...
		// while a fault at u is undetected and each j in turn, are one
		// stream, evaluated speculatively (fsim.Speculate). An accepted
		// candidate changes the remaining faults, so the stream resumes just
		// after it and the candidates behind it are prepared afresh: rng goes
		// back to its state just after the accepted candidate's draw, and S
		// loses what later lengths added to it.
		var (
			ls, j, maxJ int         // the next candidate to prepare is (ls, j)
			ai          [][]AiEntry // the sets A_i at ls; nil: start length ls+1
			abandon     bool        // the stream ended at ls > u+1
			err         error
		)
		fsim.Speculate(simulator, opts.Workers,
			func(int) (*candidate, bool) {
				for {
					if ai == nil {
						ls++
						if anyAtTime(u) < 0 {
							return nil, false
						}
						if ls > u+1 {
							// Only reachable with NoForceFullLength.
							abandon = true
							return nil, false
						}
						ai, maxJ = level(u, ls)
						j = 0
					}
					for ; j < maxJ; j++ {
						if err = ctxErr(opts.Ctx); err != nil {
							return nil, false
						}
						tIdx := anyAtTime(u)
						if tIdx < 0 {
							return nil, false
						}
						a, ok := assignmentAt(ai, j)
						if !ok {
							break
						}
						// Section 4.2: only assignments containing at least
						// one subsequence of length ls are considered.
						if !a.HasLen(ls) {
							continue
						}
						cd := prepare(a, windowLen(opts.LG, u), tIdx)
						cd.ls, cd.j, cd.ai, cd.maxJ, cd.sLen = ls, j, ai, maxJ, res.S.Len()
						j++
						return cd, true
					}
					ai = nil
				}
			},
			simulate,
			func(cd *candidate) bool {
				nf, nt := drop(cd)
				if len(nf) == 0 {
					return false
				}
				res.Omega = append(res.Omega, cd.a)
				res.Traces = append(res.Traces, Trace{
					U: u, LS: cd.ls, J: cd.j, Assignment: cd.a, NewlyDetected: len(nf),
					NewFaults: nf, NewDetTimes: nt,
				})
				*rng = cd.rng
				ls, j, ai, maxJ = cd.ls, cd.j+1, cd.ai, cd.maxJ
				res.S.truncate(cd.sLen)
				abandon = false
				return true
			})
		if err != nil {
			ssp.End()
			return nil, err
		}
		if abandon {
			// Abandon the faults at this detection time.
			for i, dt := range detTime {
				if dt == u && pend.Drop(i) {
					res.Unreproduced++
				}
			}
		}
	}
	ssp.End()
	return res, nil
}

// candidate is one weight assignment a of the selection stream at a
// detection time, prepared against the remaining faults. It records where
// the stream stood when it was prepared: its subsequence length ls and
// index j, the sets A_i at ls with the bound maxJ, the size of S, and the
// state of the procedure's rng just after drawing the fault order (order[k]
// is the target index of faults[k]). lg is its sequence length; out is its
// outcome once simulated.
type candidate struct {
	a           Assignment
	ls, j, maxJ int
	ai          [][]AiEntry
	sLen        int
	lg          int
	order       []int
	faults      []fault.Fault
	rng         randutil.RNG
	out         *fsim.Outcome
}

// ctxErr returns the cancellation error of a (possibly nil) context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// faultTimePairs sorts parallel (fault index, detection time) slices by
// ascending fault index.
type faultTimePairs struct{ faults, times []int }

func (p *faultTimePairs) Len() int           { return len(p.faults) }
func (p *faultTimePairs) Less(i, j int) bool { return p.faults[i] < p.faults[j] }
func (p *faultTimePairs) Swap(i, j int) {
	p.faults[i], p.faults[j] = p.faults[j], p.faults[i]
	p.times[i], p.times[j] = p.times[j], p.times[i]
}

// unsortedAi is the ablation variant of BuildAi: perfect matches in weight-set
// order, without the n_m sort.
func unsortedAi(s []string, ti []logic.V, u, maxLen int) []AiEntry {
	var out []AiEntry
	for idx, alpha := range s {
		if len(alpha) > maxLen || !PerfectMatch(alpha, ti, u) {
			continue
		}
		out = append(out, AiEntry{Index: idx, Alpha: alpha, Matches: CountMatches(alpha, ti)})
	}
	return out
}

// fullLengthAligned reports whether some candidate index j yields an
// assignment whose subsequences all have length ls.
func fullLengthAligned(ai [][]AiEntry, ls int) bool {
	maxJ := 0
	for i := range ai {
		if len(ai[i]) > maxJ {
			maxJ = len(ai[i])
		}
	}
	for j := 0; j < maxJ; j++ {
		all := true
		for i := range ai {
			if len(ai[i]) == 0 {
				return false
			}
			k := j
			if k >= len(ai[i]) {
				k = len(ai[i]) - 1
			}
			if len(ai[i][k].Alpha) != ls {
				all = false
				break
			}
		}
		if all {
			return true
		}
	}
	return false
}

// prependFullLength moves (or inserts) a length-ls entry to the front of a.
func prependFullLength(a []AiEntry, ls int) []AiEntry {
	for k := range a {
		if len(a[k].Alpha) == ls {
			e := a[k]
			out := make([]AiEntry, 0, len(a))
			out = append(out, e)
			out = append(out, a[:k]...)
			out = append(out, a[k+1:]...)
			return out
		}
	}
	return a
}

// assignmentAt builds the j-th candidate assignment from the A_i sets,
// clipping j to each set's size (the paper increments j per input jointly;
// clipping keeps shorter sets usable while longer sets still advance).
func assignmentAt(ai [][]AiEntry, j int) (Assignment, bool) {
	subs := make([]string, len(ai))
	for i := range ai {
		if len(ai[i]) == 0 {
			return Assignment{}, false
		}
		k := j
		if k >= len(ai[i]) {
			k = len(ai[i]) - 1
		}
		subs[i] = ai[i][k].Alpha
	}
	return Assignment{Subs: subs}, true
}
