// Package atpg generates deterministic test sequences for synchronous
// sequential circuits. It substitutes for the STRATEGATE [24] and SEQCOM [25]
// sequences used in the paper (see DESIGN.md): the weighted-BIST procedure
// only needs *a* deterministic sequence T with known per-fault detection
// times, whose coverage becomes the target coverage.
//
// The generator is fault-simulation based:
//
//  1. a long pseudo-random sequence is fault-simulated with fault dropping
//     and truncated after the last useful time unit;
//  2. remaining faults are attacked with weighted-random directed trials
//     appended to the sequence (random per-input bias, several restarts);
//  3. restoration-based static compaction removes blocks of vectors that do
//     not contribute to coverage (the paper's sequences are also statically
//     compacted).
package atpg

import (
	"context"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Fixed budgets of the directed, deterministic and compaction phases.
const (
	// trialsPerRound is the number of directed weighted-random trials per
	// round, and directedRounds bounds the directed phase to that many
	// rounds.
	trialsPerRound = 24
	directedRounds = 6
	// trialLen is the length of one directed trial.
	trialLen = 48
	// maxAccepts bounds the number of directed trials appended to the
	// sequence, keeping its length (and hence simulation cost) bounded.
	maxAccepts = 10
	// podemTargets bounds how many still-undetected faults the
	// deterministic PODEM phase attacks.
	podemTargets = 24
	// podemFrames is the time-frame window of each PODEM search.
	podemFrames = 8
	// proofBacktracks caps the one-frame redundancy proof run before each
	// PODEM search. At 200 it proves 65 of the 72 seed-1 targets of s208,
	// s386 and s820; at 1000 the compile-stuck benchmark's PODEM phases
	// take 8,035 backtracks instead of 6,779 at seed 1.
	proofBacktracks = 200
	// maxDeletions skips a compaction block size that would split the
	// sequence into more candidate deletions than this, to bound the number
	// of re-simulations.
	maxDeletions = 48
)

// compactionBlocks lists the block sizes tried during static compaction,
// largest first. Each candidate deletion [lo,hi) is simulated only against
// the faults detected at or after lo, since the unchanged prefix keeps the
// earlier detections.
var compactionBlocks = [...]int{128, 64, 16}

// Options tune sequence generation. The zero value selects sensible defaults.
type Options struct {
	// Seed drives all pseudo-random choices.
	Seed uint64
	// Init is the initial flip-flop value (logic.Zero or logic.X).
	Init logic.V
	// RandomLen is the length of the phase-1 random sequence
	// (default max(256, 2×gates), capped at 4096).
	RandomLen int
	// NoCompaction disables phase 3.
	NoCompaction bool
	// NoDeterministicPhase disables the PODEM phase.
	NoDeterministicPhase bool
	// Model selects the fault model whose collapsed universe the sequence
	// targets (nil = stuck-at). The random and directed phases work for any
	// model; the deterministic PODEM phase reasons about stuck-at activation
	// and propagation only, so it is skipped for other models. Every
	// detection time the generator records comes from an exact simulation
	// of the sequence, continued from carried machine states. The directed
	// trials alone keep a search heuristic's shortcut: each trial starts
	// every transition fault's launch history at X (fsim.States.FlipFlops),
	// and a fault a trial detects stops being a trial target even if the
	// exact continuation of the accepted trial does not detect it.
	Model fault.Model
	// Workers is the fault-simulation worker count handed to fsim (0 or 1 =
	// sequential), and the number of directed trials or compaction
	// deletions evaluated at once (fsim.Speculate). The generated sequence
	// is bit-identical for any value.
	Workers int
	// Span, when non-nil, is the parent telemetry span under which the
	// generator records its phases ("atpg" with one child per phase).
	Span *telemetry.Span
	// Ctx, if non-nil, cancels generation: it is checked between phases,
	// directed trials and compaction deletions (and threaded into the fsim
	// runs, which stop claiming fault groups). Generate has no error return,
	// so a cancelled run hands back whatever partial sequence it had —
	// callers that care (the pipeline) check ctx.Err() afterwards and
	// discard the result.
	Ctx context.Context
}

func (o *Options) fill(c *circuit.Circuit) {
	if o.RandomLen == 0 {
		o.RandomLen = min(max(2*c.NumGates(), 256), 4096)
	}
}

// Result is a generated deterministic test sequence together with its fault
// dictionary.
type Result struct {
	// Seq is the final test sequence T.
	Seq *sim.Sequence
	// Faults is the collapsed fault universe of the circuit.
	Faults []fault.Fault
	// Detected[i] reports whether T detects Faults[i].
	Detected []bool
	// DetTime[i] is the first detection time of Faults[i] (-1 if undetected).
	DetTime []int
	// NumDetected is the count of detected faults.
	NumDetected int
}

// Coverage returns NumDetected / len(Faults).
func (r *Result) Coverage() float64 {
	if len(r.Faults) == 0 {
		return 0
	}
	return float64(r.NumDetected) / float64(len(r.Faults))
}

// DetectedFaults returns the detected subset of the fault list, in universe
// order.
func (r *Result) DetectedFaults() []fault.Fault {
	out := make([]fault.Fault, 0, r.NumDetected)
	for i, d := range r.Detected {
		if d {
			out = append(out, r.Faults[i])
		}
	}
	return out
}

// Generate produces a deterministic test sequence for c.
func Generate(c *circuit.Circuit, opts Options) *Result {
	opts.fill(c)
	span := opts.Span.Child("atpg")
	defer span.End()
	model := opts.Model
	if model == nil {
		model = fault.StuckAt{}
	}
	faults := fault.CollapsedUniverseFor(c, model)
	s := fsim.New(c)
	seq, l := search(c, s, faults, opts, span)

	// Phase 2.5: deterministic PODEM phase for the faults random search
	// missed. Each search continues from the good/faulty machine states at
	// the end of the current sequence, so found windows are appended. PODEM
	// reasons about stuck-at activation/propagation, so the phase only runs
	// under the stuck-at model.
	_, stuckAt := model.(fault.StuckAt)
	if !opts.NoDeterministicPhase && stuckAt && len(l.faults) > 0 && !ctxDone(opts.Ctx) {
		p25 := span.Child("podem")
		seq = deterministicPhase(c, s, seq, l, opts)
		p25.End()
	}

	// Phase 3: restoration-based static compaction, starting from the
	// ledger's detection times.
	det := l.det
	if !opts.NoCompaction && !ctxDone(opts.Ctx) {
		p3 := span.Child("compaction")
		compacted := compact(s, seq, faults, det, opts)
		p3.End()
		if compacted != seq {
			// A deletion changes the sequence, so the faults the ledger
			// leaves undetected are simulated once more over the result.
			var rest []fault.Fault
			var restIdx []int
			for i, t := range det {
				if t < 0 {
					rest = append(rest, faults[i])
					restIdx = append(restIdx, i)
				}
			}
			o := simulate(s, compacted, rest, opts)
			for j, i := range restIdx {
				det[i] = o.DetTime[j]
			}
			seq = compacted
		}
	}

	res := &Result{
		Seq:      seq,
		Faults:   faults,
		Detected: make([]bool, len(faults)),
		DetTime:  det,
	}
	for i, t := range det {
		if t >= 0 {
			res.Detected[i] = true
			res.NumDetected++
		}
	}
	return res
}

// search runs the random-search phases of Generate (opts filled in) and
// returns the sequence they build, with the ledger it leaves.
func search(c *circuit.Circuit, s *fsim.Simulator, faults []fault.Fault, opts Options, span *telemetry.Span) (*sim.Sequence, *ledger) {
	rng := randutil.New(opts.Seed)

	// Phase 1: one long random sequence, truncated after the last detection.
	// Every detection happens at or before the cut, so phase 1's outcome is
	// also the outcome of the truncated sequence.
	p1 := span.Child("random")
	seq := sim.RandomSequence(rng, c.NumInputs(), opts.RandomLen)
	out := simulate(s, seq, faults, opts)
	last := -1
	for i := range faults {
		if out.Detected[i] && out.DetTime[i] > last {
			last = out.DetTime[i]
		}
	}
	if last < 0 {
		// Nothing detected (degenerate circuit); keep a one-vector sequence.
		seq = seq.Slice(0, 1)
	} else {
		seq = seq.Slice(0, last+1)
	}
	p1.End()

	// Phase 2: directed weighted-random trials for the remaining faults.
	// The ledger simulates the prefix once, saving the machine state of
	// every undetected fault; each trial then only pays for its own vectors,
	// and an accepted trial is re-run once from the exact states to carry
	// the states and detection times forward.
	p2 := span.Child("directed")
	l := newLedger(faults, out)
	if len(l.faults) > 0 && !ctxDone(opts.Ctx) {
		l.capture(s, seq, opts)
	}
	directedPhase(s, seq, l, rng, c.NumInputs(), opts)
	p2.End()
	return seq, l
}

// trial is one directed trial and, once simulated, its outcome.
type trial struct {
	seq *sim.Sequence
	out *fsim.Outcome
}

// directedPhase appends directed weighted-random trials to seq. A round
// draws trials until one detects a trial target, or until the trial budget
// of all rounds is spent; the accepted trial is appended and carried into
// the ledger, and the next round starts from the extended states. Trials
// are drawn from rng whatever the outcome, and an accepted trial does not
// use up budget.
//
// The trials of a round are evaluated speculatively (fsim.Speculate): a
// trial drawn after one that is then accepted is not drawn again but
// evaluated afresh, as the first trial of the next round.
func directedPhase(s *fsim.Simulator, seq *sim.Sequence, l *ledger, rng *randutil.RNG, numInputs int, opts Options) {
	accepted := 0
	budget := directedRounds * trialsPerRound
	var drawn []*sim.Sequence // drawn[k]: the k-th trial not yet committed
	for l.numTargets() > 0 && accepted < maxAccepts && budget > 0 && !ctxDone(opts.Ctx) {
		targets, start := l.trialTargets()
		improved := false
		fsim.Speculate(s, opts.Workers,
			func(ahead int) (*trial, bool) {
				if improved || budget-ahead <= 0 || ctxDone(opts.Ctx) {
					return nil, false
				}
				for len(drawn) <= ahead {
					drawn = append(drawn, weightedRandom(rng, numInputs, trialLen))
				}
				return &trial{seq: drawn[ahead]}, true
			},
			func(ws *fsim.Simulator, t *trial) {
				t.out = ws.Run(t.seq, targets, fsim.Options{
					InitialStates: start,
					Workers:       opts.Workers,
				})
			},
			func(t *trial) bool {
				drawn = drawn[1:]
				if t.out.NumDetected == 0 {
					budget--
					return false
				}
				l.dropTargets(t.out)
				if ext := l.continueWith(s, t.seq, opts); ext != nil {
					l.commit(ext)
					seq.Concat(t.seq)
					accepted++
					improved = true
				}
				// Cancelled otherwise; improved stays false, the phase ends
				// and the caller discards the run.
				return true
			})
		if !improved {
			break
		}
	}
}

// simulate fault-simulates seq over faults from time 0 and opts.Init.
func simulate(s *fsim.Simulator, seq *sim.Sequence, faults []fault.Fault, opts Options) *fsim.Outcome {
	return s.Run(seq, faults, fsim.Options{Init: opts.Init, Workers: opts.Workers, Ctx: opts.Ctx})
}

// ctxDone reports whether a (possibly nil) context has been cancelled.
func ctxDone(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	select {
	case <-ctx.Done():
		return true
	default:
		return false
	}
}

// weightedRandom returns a sequence whose inputs are biased with random
// per-input 1-probabilities drawn from {0.1, 0.25, 0.5, 0.75, 0.9}; holding
// inputs near constant values is what sequential circuits often need to
// traverse state space (the idea behind weighted-random sequential BIST).
func weightedRandom(rng *randutil.RNG, n, l int) *sim.Sequence {
	probs := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	bias := make([]float64, n)
	for i := range bias {
		bias[i] = probs[rng.Intn(len(probs))]
	}
	seq := sim.NewSequence(n)
	vec := make([]logic.V, n)
	for u := 0; u < l; u++ {
		for i := range vec {
			vec[i] = logic.FromBit(rng.Float64() < bias[i])
		}
		seq.Append(vec)
	}
	return seq
}

// compact removes blocks of vectors whose omission does not lose coverage.
// Blocks are tried back to front at each block size so that later deletions
// do not invalidate earlier decisions within a pass. det holds every fault's
// first detection time under seq (-1 if undetected); the detected faults are
// the targets that must stay detected, and compact leaves det holding their
// times under the returned sequence. It returns seq itself if it deleted
// nothing.
//
// Deleting [lo,hi) leaves the prefix [0,lo) as it was, and every run starts
// at time 0 from opts.Init, so a target first detected before lo is still
// detected, at the same time. compact therefore keeps each target's current
// detection time and simulates a candidate only against the targets detected
// at or after lo; an accepted deletion takes their new times from that run.
// The decisions, and so the returned sequence, are the ones a full
// re-simulation of every target would make, for every fault model.
//
// The deletions of a block pass are evaluated speculatively
// (fsim.Speculate); after an accepted deletion, every later candidate is
// rebuilt from the new sequence and detection times.
func compact(s *fsim.Simulator, seq *sim.Sequence, faults []fault.Fault, det []int, opts Options) *sim.Sequence {
	var targets []int // indices of the detected faults
	for i, t := range det {
		if t >= 0 {
			targets = append(targets, i)
		}
	}
	for _, block := range compactionBlocks {
		if seq.Len()/block > maxDeletions {
			continue
		}
		lo := (seq.Len() - 1) / block * block // the next deletion to try
		fsim.Speculate(s, opts.Workers,
			func(int) (*deletion, bool) {
				for ; lo >= 0 && !ctxDone(opts.Ctx); lo -= block {
					hi := min(lo+block, seq.Len())
					if hi-lo == seq.Len() {
						continue // never delete everything
					}
					d := &deletion{from: seq, lo: lo, hi: hi}
					for _, i := range targets {
						if det[i] >= lo {
							d.late = append(d.late, faults[i])
							d.lateIdx = append(d.lateIdx, i)
						}
					}
					lo -= block
					return d, true
				}
				return nil, false
			},
			func(ws *fsim.Simulator, d *deletion) {
				d.seq = sim.NewSequence(d.from.NumInputs)
				for u, v := range d.from.Vecs {
					if u < d.lo || u >= d.hi {
						d.seq.Append(v)
					}
				}
				if len(d.late) > 0 {
					d.out = simulate(ws, d.seq, d.late, opts)
				}
			},
			func(d *deletion) bool {
				if d.out != nil {
					if d.out.NumDetected != len(d.late) {
						return false
					}
					for j, i := range d.lateIdx {
						det[i] = d.out.DetTime[j]
					}
				}
				seq = d.seq
				lo = d.lo - block
				return true
			})
	}
	return seq
}

// deletion is one candidate of compact: the sequence from without the block
// [lo,hi), simulated against the targets detected at or after lo.
type deletion struct {
	from    *sim.Sequence
	lo, hi  int
	seq     *sim.Sequence
	late    []fault.Fault
	lateIdx []int
	out     *fsim.Outcome
}
