// Package difftest is the standing differential oracle of this repository:
// it cross-checks the bit-parallel fault simulator (fsim) — sequential and
// parallel, at every lane width, whole runs and split continuation runs —
// against the deliberately naive one-fault-at-a-time reference simulator
// (ref) on random circuits from the rcg generator, each lane width against
// the one-lane run for the work counters, hook and trace streams ref does
// not model, and the fault-free machine against the scalar logic simulator
// (sim). The deterministic tests and the Go-native fuzz
// targets in this package are the safety net under which every future
// simulator optimisation (multi-group slabs, fault dropping, SIMD) must
// land.
//
// The helpers are exported (within internal/) so tests and fuzz targets
// share one stimulus decoder and one comparison routine; everything is
// deterministic in the seeds.
package difftest

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/podem"
	"repro/internal/randutil"
	"repro/internal/ref"
	"repro/internal/sim"
)

// Config selects the differential axes of one triple check.
type Config struct {
	// Init is the common flip-flop initialisation.
	Init logic.V
	// Workers, if > 1, additionally replays the fsim run in parallel and
	// demands a bit-identical outcome.
	Workers int
	// SaveStates compares final flip-flop states (fault-free and per fault).
	SaveStates bool
	// StopTime, if positive, truncates the sequence after this many time
	// units before any simulator sees it.
	StopTime int
	// SplitContinuation, if set (and StopTime is zero and the sequence has
	// at least 2 vectors), additionally replays the fsim run as a prefix run
	// with SaveStates plus a continuation run from its InitialStates and
	// demands that the merged outcome matches the unsplit oracle.
	SplitContinuation bool
	// ObserveLines turns on internal-line observability recording
	// (fsim.Options.ObserveLines, ref.Options.ObserveLines) in CheckSlab:
	// the oracle's Lines are then compared too. CheckTriple ignores it.
	ObserveLines bool
}

// ConfigFromSeed derives a check configuration from one seed (the decoder
// used by the fuzz targets).
func ConfigFromSeed(seed uint64, seqLen int) Config {
	rng := randutil.New(seed)
	cfg := Config{
		Init:              []logic.V{logic.Zero, logic.One, logic.X}[rng.Intn(3)],
		Workers:           1 + rng.Intn(8),
		SaveStates:        rng.Bool(),
		SplitContinuation: rng.Bool(),
	}
	if rng.Intn(3) == 0 && seqLen > 0 {
		cfg.StopTime = 1 + rng.Intn(seqLen)
	}
	// Drawn last so the older corpus entries keep decoding to the same
	// Init/Workers/SaveStates/SplitContinuation/StopTime they were saved for.
	cfg.ObserveLines = rng.Bool()
	return cfg
}

// RandomStimulus derives a random test sequence for n inputs: 1-32 time
// units, and (half of the time) a sprinkling of X values so the unknown
// paths of both simulators are exercised. A quarter of the draws (binary,
// longer than 16 units) instead become a periodic weighted sequence of
// twice that length: every input repeats its own random 1-4 bit
// subsequence, the paper's α^r (core.Assignment.GenSequence). The machines
// of a small circuit soon re-enter an earlier state under such input, which
// is what fsim's repeat exit detects. The other draws decode exactly as
// before periodic sequences existed, so older corpus entries keep theirs.
func RandomStimulus(rng *randutil.RNG, n int) *sim.Sequence {
	l := 1 + rng.Intn(32)
	withX := rng.Bool()
	if !withX && l > 16 {
		subs := make([]string, n)
		for i := range subs {
			bs := make([]byte, 1+rng.Intn(4))
			for j := range bs {
				bs[j] = '0' + byte(rng.Intn(2))
			}
			subs[i] = string(bs)
		}
		return core.Assignment{Subs: subs}.GenSequence(2 * l)
	}
	seq := sim.NewSequence(n)
	vec := make([]logic.V, n)
	for u := 0; u < l; u++ {
		for i := range vec {
			if withX && rng.Intn(8) == 0 {
				vec[i] = logic.X
			} else {
				vec[i] = logic.FromBit(rng.Bool())
			}
		}
		seq.Append(vec)
	}
	return seq
}

// SampleFaults derives a fault list from the full collapsed universe: the
// whole list (so multi-group runs and Workers>1 sharding happen), a
// contiguous window, a sparse subset, or a single fault.
func SampleFaults(rng *randutil.RNG, all []fault.Fault) []fault.Fault {
	switch rng.Intn(4) {
	case 0:
		return all
	case 1:
		lo := rng.Intn(len(all))
		hi := lo + 1 + rng.Intn(len(all)-lo)
		return all[lo:hi]
	case 2:
		var out []fault.Fault
		for _, f := range all {
			if rng.Intn(3) == 0 {
				out = append(out, f)
			}
		}
		return out
	default:
		return []fault.Fault{all[rng.Intn(len(all))]}
	}
}

// CompareOutcomes checks that a ref outcome and an fsim outcome are
// bit-identical fault for fault: Detected, DetTime, NumDetected, Lines
// (when the ref run observed them), and (when saveStates) every machine's
// full final state — the fault-free machine's flip-flops, each fault's
// flip-flops and each fault's launch history.
func CompareOutcomes(c *circuit.Circuit, faults []fault.Fault, r *ref.Outcome, f *fsim.Outcome, saveStates bool) error {
	if len(r.Detected) != len(faults) || len(f.Detected) != len(faults) {
		return fmt.Errorf("outcome sizes %d/%d for %d faults", len(r.Detected), len(f.Detected), len(faults))
	}
	if r.NumDetected != f.NumDetected {
		return fmt.Errorf("NumDetected: ref %d, fsim %d", r.NumDetected, f.NumDetected)
	}
	for i := range faults {
		if r.Detected[i] != f.Detected[i] || r.DetTime[i] != f.DetTime[i] {
			return fmt.Errorf("fault %d (%s): ref detected=%v t=%d, fsim detected=%v t=%d",
				i, faults[i].String(c), r.Detected[i], r.DetTime[i], f.Detected[i], f.DetTime[i])
		}
	}
	if r.Lines != nil {
		if len(f.Lines) != len(faults) {
			return fmt.Errorf("fsim observed lines of %d faults, want %d", len(f.Lines), len(faults))
		}
		for i := range faults {
			for id, want := range r.Lines[i] {
				if got := f.Lines[i].Get(id); got != want {
					return fmt.Errorf("fault %d (%s) line %s: ref observed=%v, fsim observed=%v",
						i, faults[i].String(c), c.Nodes[id].Name, want, got)
				}
			}
		}
	}
	if !saveStates {
		return nil
	}
	st := f.FinalStates
	if st.Len() != len(faults) {
		return fmt.Errorf("fsim FinalStates holds %d faults, want %d", st.Len(), len(faults))
	}
	for i := range faults {
		if got := st.Good(i); !slices.Equal(got, r.FaultFreeFinal) {
			return fmt.Errorf("fault %d (%s) group's fault-free final state: ref %v, fsim %v",
				i, faults[i].String(c), r.FaultFreeFinal, got)
		}
		if got, want := st.Faulty(i), r.FinalStates[i]; !slices.Equal(got, want) {
			return fmt.Errorf("fault %d (%s) final state: ref %v, fsim %v", i, faults[i].String(c), want, got)
		}
		if got, want := st.LaunchHistory(i), r.LaunchHistory[i]; got != want {
			return fmt.Errorf("fault %d (%s) launch history: ref %v, fsim %v", i, faults[i].String(c), want, got)
		}
	}
	return nil
}

// oracle runs the ref oracle on a triple under cfg.
func oracle(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) *ref.Outcome {
	return ref.Run(c, seq, faults, ref.Options{Init: cfg.Init, SaveStates: cfg.SaveStates, ObserveLines: cfg.ObserveLines})
}

// options returns the fsim options of a triple's run under cfg at the given
// worker count and lane width.
func options(cfg Config, workers, lanes int) fsim.Options {
	return fsim.Options{
		Init: cfg.Init, SaveStates: cfg.SaveStates, ObserveLines: cfg.ObserveLines,
		Workers: workers, SlabLanes: lanes,
	}
}

// CheckTriple runs the full differential check for one (circuit, fault set,
// sequence) triple under cfg and returns the first divergence found (nil if
// the oracle, the sequential and parallel fsim runs at one lane and at the
// automatic width, and the split continuation replays all agree), along
// with the work of the sequential one-lane run, which every other unsplit
// run must match.
func CheckTriple(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) (fsim.Work, error) {
	// Line observation turns the early exits off. CheckSlab checks it
	// against the oracle; here the early exits meet the oracle.
	cfg.ObserveLines = false
	seq = truncate(seq, cfg)
	refOut := oracle(c, seq, faults, cfg)
	base := fsim.Run(c, seq, faults, options(cfg, 1, 1))
	if err := CompareOutcomes(c, faults, refOut, base, cfg.SaveStates); err != nil {
		return base.Work, fmt.Errorf("ref vs fsim(one lane, Workers=1): %w", err)
	}
	workers := []int{1}
	if cfg.Workers > 1 {
		workers = append(workers, cfg.Workers)
	}
	for _, lanes := range []int{1, 0} {
		for _, w := range workers {
			if lanes == 1 && w == 1 {
				continue // the baseline above
			}
			if err := sameFsimOutcome(base, fsim.Run(c, seq, faults, options(cfg, w, lanes))); err != nil {
				return base.Work, fmt.Errorf("fsim one lane, Workers=1 vs SlabLanes=%d, Workers=%d: %w", lanes, w, err)
			}
		}
	}
	if splits(seq, faults, cfg) {
		// The unsplit oracle saw the whole sequence at once, so the merged
		// detections and lines and the continuation's final states must
		// match it.
		for _, lanes := range []int{1, 0} {
			merged := splitRun(c, seq, faults, cfg, lanes)
			if err := CompareOutcomes(c, faults, refOut, merged, cfg.SaveStates); err != nil {
				return base.Work, fmt.Errorf("split continuation (SlabLanes=%d, Workers=%d): %w", lanes, cfg.Workers, err)
			}
		}
	}
	return base.Work, nil
}

// truncate returns seq cut after cfg.StopTime time units, if that is
// positive and shorter than seq.
func truncate(seq *sim.Sequence, cfg Config) *sim.Sequence {
	if cfg.StopTime > 0 && cfg.StopTime < seq.Len() {
		return seq.Slice(0, cfg.StopTime)
	}
	return seq
}

// splits reports whether the split-continuation axis applies to a triple.
func splits(seq *sim.Sequence, faults []fault.Fault, cfg Config) bool {
	return cfg.SplitContinuation && cfg.StopTime == 0 && seq.Len() >= 2 && len(faults) > 0
}

// splitRun replays the fsim run split at the sequence midpoint — a prefix
// run with SaveStates, then a continuation from its states, which carry the
// prefix's length so the continuation reports absolute detection times —
// at cfg.Workers and the given lane width, and returns the merged outcome:
// each fault's first detection over both halves, the union of the lines
// both halves observed (when cfg.ObserveLines), and (when cfg.SaveStates)
// the continuation's final states.
func splitRun(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config, lanes int) *fsim.Outcome {
	split := seq.Len() / 2
	pre := options(cfg, cfg.Workers, lanes)
	pre.SaveStates = true
	preOut := fsim.Run(c, seq.Slice(0, split), faults, pre)
	cont := options(cfg, cfg.Workers, lanes)
	cont.InitialStates = preOut.FinalStates
	out := fsim.Run(c, seq.Slice(split, seq.Len()), faults, cont)
	for i := range faults {
		if preOut.Detected[i] {
			if !out.Detected[i] {
				out.NumDetected++
			}
			out.Detected[i], out.DetTime[i] = true, preOut.DetTime[i]
		}
		if cfg.ObserveLines {
			for k, w := range preOut.Lines[i] {
				out.Lines[i][k] |= w
			}
		}
	}
	return out
}

// CheckSlab is the lane-width differential check of the slab kernel for one
// triple, for faults of any model. The sequential one-lane run, where every
// fault group runs alone and no repack ever fires, must match the ref
// oracle bit for bit — Detected, DetTime, NumDetected, Lines (when
// cfg.ObserveLines), FinalStates with the launch history (when
// cfg.SaveStates) — and every other run must reproduce it, its per-group
// work included (sameFsimOutcome): Workers ∈ {1, 4, 8} × SlabLanes ∈
// {1, 2, 8} (multi-group batches, including tail batches narrower than W),
// the automatic width (SlabLanes=0) at Workers ∈ {1, 4}, and runs of
// different widths on one reused simulator (the arena re-stride path). Its
// split continuation replays at every tested W must match the oracle too.
// It returns the one-lane run's work.
func CheckSlab(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) (fsim.Work, error) {
	seq = truncate(seq, cfg)
	refOut := oracle(c, seq, faults, cfg)
	want := fsim.Run(c, seq, faults, options(cfg, 1, 1))
	if err := CompareOutcomes(c, faults, refOut, want, cfg.SaveStates); err != nil {
		return want.Work, fmt.Errorf("ref vs slab(one lane, Workers=1): %w", err)
	}
	// same runs seq on s at the given workers and lanes and demands the
	// one-lane run's outcome and work.
	same := func(s *fsim.Simulator, workers, lanes int) error {
		return sameFsimOutcome(want, s.Run(seq, faults, options(cfg, workers, lanes)))
	}
	for _, workers := range []int{1, 4, 8} {
		for _, lanes := range []int{1, 2, 8} {
			if err := same(fsim.New(c), workers, lanes); err != nil {
				return want.Work, fmt.Errorf("one lane vs slab(Workers=%d, W=%d): %w", workers, lanes, err)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		if err := same(fsim.New(c), workers, 0); err != nil {
			return want.Work, fmt.Errorf("one lane vs slab(Workers=%d, automatic W): %w", workers, err)
		}
	}
	// One reused simulator: the arena re-strides between widths, down to
	// one lane and back, and must still match.
	s := fsim.New(c)
	for round, lanes := range []int{2, 8, 2, 1, 4} {
		if err := same(s, 1, lanes); err != nil {
			return want.Work, fmt.Errorf("reused simulator, round %d (W=%d): %w", round, lanes, err)
		}
	}
	if splits(seq, faults, cfg) {
		for _, lanes := range []int{1, 2, 8} {
			merged := splitRun(c, seq, faults, cfg, lanes)
			if err := CompareOutcomes(c, faults, refOut, merged, cfg.SaveStates); err != nil {
				return want.Work, fmt.Errorf("slab split continuation (W=%d, Workers=%d): %w", lanes, cfg.Workers, err)
			}
		}
	}
	return want.Work, nil
}

// CheckTrace demands the detection-provenance trace (fsim.Options.Trace) be
// byte-identical in its canonical form at one lane and at the automatic
// width, across Workers ∈ {1, 4, 8}, and consistent with the ref oracle:
// exactly one event per fault the oracle detects, at the time it detects
// it. This is the determinism contract of obsv.Trace.CanonicalBytes —
// worker and kernel are annotations only.
func CheckTrace(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) error {
	seq = truncate(seq, cfg)
	run := func(workers, lanes int) (*obsv.Trace, *fsim.Outcome) {
		tr := obsv.NewTrace()
		out := fsim.Run(c, seq, faults, fsim.Options{
			Init: cfg.Init, Workers: workers, SlabLanes: lanes, Trace: tr,
		})
		return tr, out
	}
	baseTrace, baseOut := run(1, 1)
	refOut := ref.Run(c, seq, faults, ref.Options{Init: cfg.Init})
	if n := baseTrace.NumDetections(); n != refOut.NumDetected {
		return fmt.Errorf("trace has %d detection events, ref detects %d", n, refOut.NumDetected)
	}
	seen := make([]bool, len(faults))
	for _, ev := range baseTrace.Events() {
		if seen[ev.Fault] || !refOut.Detected[ev.Fault] || refOut.DetTime[ev.Fault] != ev.Time {
			return fmt.Errorf("trace event (fault %d, t=%d): ref detected=%v t=%d, repeated=%v",
				ev.Fault, ev.Time, refOut.Detected[ev.Fault], refOut.DetTime[ev.Fault], seen[ev.Fault])
		}
		seen[ev.Fault] = true
	}
	want := baseTrace.CanonicalBytes()
	for _, lanes := range []int{1, 0} {
		for _, workers := range []int{1, 4, 8} {
			if lanes == 1 && workers == 1 {
				continue // the reference run above
			}
			tr, out := run(workers, lanes)
			if err := sameFsimOutcome(baseOut, out); err != nil {
				return fmt.Errorf("SlabLanes=%d, Workers=%d: %w", lanes, workers, err)
			}
			if got := tr.CanonicalBytes(); !bytes.Equal(want, got) {
				return fmt.Errorf("SlabLanes=%d, Workers=%d: canonical trace differs from one lane at Workers=1:\nA:\n%s\nB:\n%s",
					lanes, workers, want, got)
			}
		}
	}
	return nil
}

// sameFsimOutcome demands two fsim outcomes be bit-identical (the
// determinism guarantee of Options.Workers), their work included, except
// for Work.Slab: the slab kernel's batch tallies follow its lane width, but
// neither the lane width nor Workers may change the per-group work.
func sameFsimOutcome(a, b *fsim.Outcome) error {
	x, y := *a, *b
	x.Work.Slab, y.Work.Slab = fsim.SlabWork{}, fsim.SlabWork{}
	if !reflect.DeepEqual(x, y) {
		return fmt.Errorf("outcomes differ:\nA: work=%+v n=%d det=%v times=%v\nB: work=%+v n=%d det=%v times=%v",
			x.Work, a.NumDetected, a.Detected, a.DetTime, y.Work, b.NumDetected, b.Detected, b.DetTime)
	}
	return nil
}

// CheckFaultFree drives fsim's fault-free machine (slot 0 of the OutputHook
// primary-output words) and compares it cycle for cycle against the scalar
// logic simulator, also demanding every word be legally encoded (no (1,1)
// dual-rail slots). Every group of faults (of one fault if faults is empty)
// carries its own fault-free machine; the groups run on 4 workers at the
// automatic lane width, so hook calls for different groups run concurrently,
// and each group's calls are checked in its own slot.
func CheckFaultFree(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, init logic.V) error {
	want := sim.New(c, init).Run(seq)
	if len(faults) == 0 {
		faults = fault.Universe(c)[:1]
	}
	cycles := make([]int, (len(faults)+fsim.GroupSize-1)/fsim.GroupSize)
	errs := make([]error, len(cycles))
	fsim.Run(c, seq, faults, fsim.Options{
		Init: init, Workers: 4,
		OutputHook: func(lo, hi, u int, po []logic.W) {
			g := lo / fsim.GroupSize
			seen := cycles[g]
			if cycles[g]++; errs[g] != nil {
				return
			}
			if u != seen {
				errs[g] = fmt.Errorf("group %d: hook called for t=%d after %d time units", g, u, seen)
				return
			}
			for k, w := range po {
				if !w.Valid() {
					errs[g] = fmt.Errorf("group %d t=%d output %d: illegal dual-rail word %s", g, u, k, w)
					return
				}
				if got := w.Get(0); got != want[u][k] {
					errs[g] = fmt.Errorf("group %d t=%d output %d: fsim fault-free %v, sim %v", g, u, k, got, want[u][k])
					return
				}
			}
		},
	})
	for g, n := range cycles {
		if errs[g] == nil && n != seq.Len() {
			errs[g] = fmt.Errorf("group %d: hook saw %d cycles for a %d-unit sequence", g, n, seq.Len())
		}
	}
	return errors.Join(errs...)
}

// CheckRedundant checks the one-frame redundancy proofs against the oracle:
// every fault of c's full stuck-at universe that podem.Prove shows
// redundant must stay undetected by ref.Run over seq, from the all-zero and
// from the all-X initial state.
func CheckRedundant(c *circuit.Circuit, seq *sim.Sequence) error {
	var proven []fault.Fault
	for _, f := range fault.Universe(c) {
		if podem.Prove(c, f, 1000) == podem.Redundant {
			proven = append(proven, f)
		}
	}
	for _, init := range []logic.V{logic.Zero, logic.X} {
		r := ref.Run(c, seq, proven, ref.Options{Init: init})
		for i, d := range r.Detected {
			if d {
				return fmt.Errorf("%s proven redundant, but ref detects it at t=%d from init %v",
					proven[i].String(c), r.DetTime[i], init)
			}
		}
	}
	return nil
}

// Describe renders the repro context of a failing triple: circuit netlist,
// stimulus and configuration — enough to paste into a regression test.
func Describe(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) string {
	return fmt.Sprintf("config: %+v\nfaults: %d\nsequence:\n%s\nnetlist:\n%s",
		cfg, len(faults), seq, benchText(c))
}

func benchText(c *circuit.Circuit) string {
	var sb strings.Builder
	if err := bench.Write(&sb, c); err != nil {
		return fmt.Sprintf("<bench render failed: %v>", err)
	}
	return sb.String()
}
