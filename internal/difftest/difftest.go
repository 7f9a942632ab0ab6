// Package difftest is the standing differential oracle of this repository:
// it cross-checks the bit-parallel fault simulator (fsim) — sequential and
// parallel, whole runs and split continuation runs — against the deliberately
// naive one-fault-at-a-time reference simulator (ref) on random circuits
// from the rcg generator, and the fault-free machine against the scalar
// logic simulator (sim). The deterministic tests and the Go-native fuzz
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
	// StopTime, if positive, truncates the sequence in both simulators.
	StopTime int
	// SplitContinuation, if set (and StopTime is zero and the sequence has
	// at least 2 vectors), additionally replays the fsim run as a prefix run
	// with SaveStates plus a continuation run via InitialStates/TimeOffset
	// and demands that the merged outcome matches the unsplit oracle.
	SplitContinuation bool
	// ObserveLines turns on internal-line observability recording in the
	// dense-vs-slab kernel cross-check (CheckSlab); the ref oracle does not
	// model Lines, so CheckTriple ignores it.
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
// bit-identical fault for fault: Detected, DetTime, NumDetected, and (when
// saveStates) every machine's full final state — the fault-free machine's
// flip-flops, each fault's flip-flops and each fault's launch history.
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

// CheckTriple runs the full differential check for one (circuit, fault set,
// sequence) triple under cfg and returns the first divergence found (nil if
// the oracle, the sequential and parallel fsim runs of both kernels and the
// split continuation replays all agree). The kernels are pinned explicitly
// — dense as the ref-locked baseline, slab against both ref and dense — so
// the check is invariant to the FSIM_KERNEL environment override.
func CheckTriple(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) error {
	refOut := ref.Run(c, seq, faults, ref.Options{
		Init: cfg.Init, StopTime: cfg.StopTime, SaveStates: cfg.SaveStates,
	})
	run := func(k fsim.Kernel, workers int) *fsim.Outcome {
		return fsim.Run(c, seq, faults, fsim.Options{
			Init: cfg.Init, StopTime: cfg.StopTime, SaveStates: cfg.SaveStates,
			Workers: workers, Kernel: k,
		})
	}
	seqOut := run(fsim.KernelDense, 1)
	if err := CompareOutcomes(c, faults, refOut, seqOut, cfg.SaveStates); err != nil {
		return fmt.Errorf("ref vs fsim(sequential dense): %w", err)
	}
	workers := []int{1}
	if cfg.Workers > 1 {
		workers = append(workers, cfg.Workers)
	}
	for _, k := range []fsim.Kernel{fsim.KernelDense, fsim.KernelSlab} {
		for _, w := range workers {
			if k == fsim.KernelDense && w == 1 {
				continue // the baseline above
			}
			out := run(k, w)
			if err := sameFsimOutcome(seqOut, out); err != nil {
				return fmt.Errorf("fsim sequential dense vs %v Workers=%d: %w", k, w, err)
			}
			if err := CompareOutcomes(c, faults, refOut, out, cfg.SaveStates); err != nil {
				return fmt.Errorf("ref vs fsim(%v Workers=%d): %w", k, w, err)
			}
		}
	}
	if splits(seq, faults, cfg) {
		// The unsplit oracle saw the whole sequence at once, so the merged
		// detections and the continuation's final states must match it.
		for _, k := range []fsim.Kernel{fsim.KernelDense, fsim.KernelSlab} {
			merged := splitRun(c, seq, faults, cfg, fsim.Options{Kernel: k, Workers: cfg.Workers})
			if err := CompareOutcomes(c, faults, refOut, merged, cfg.SaveStates); err != nil {
				return fmt.Errorf("split continuation (%v, Workers=%d): %w", k, cfg.Workers, err)
			}
		}
	}
	return nil
}

// splits reports whether the split-continuation axis applies to a triple.
func splits(seq *sim.Sequence, faults []fault.Fault, cfg Config) bool {
	return cfg.SplitContinuation && cfg.StopTime == 0 && seq.Len() >= 2 && len(faults) > 0
}

// splitRun replays the fsim run split at the sequence midpoint — a prefix
// run with SaveStates, then a continuation from its states with TimeOffset —
// under the kernel, worker and lane settings of run, and returns the merged
// outcome: each fault's first detection over both halves and (when
// cfg.SaveStates) the continuation's final states.
func splitRun(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config, run fsim.Options) *fsim.Outcome {
	split := seq.Len() / 2
	pre := run
	pre.Init, pre.SaveStates = cfg.Init, true
	preOut := fsim.Run(c, seq.Slice(0, split), faults, pre)
	cont := run
	cont.InitialStates, cont.TimeOffset, cont.SaveStates = preOut.FinalStates, split, cfg.SaveStates
	out := fsim.Run(c, seq.Slice(split, seq.Len()), faults, cont)
	for i := range faults {
		if preOut.Detected[i] {
			if !out.Detected[i] {
				out.NumDetected++
			}
			out.Detected[i], out.DetTime[i] = true, preOut.DetTime[i]
		}
	}
	return out
}

// sameSplit demands a merged split outcome match the unsplit fsim outcome
// want in its detections and (when saveStates) its final states.
func sameSplit(want, merged *fsim.Outcome, saveStates bool) error {
	if !reflect.DeepEqual(want.Detected, merged.Detected) || !reflect.DeepEqual(want.DetTime, merged.DetTime) ||
		want.NumDetected != merged.NumDetected {
		return fmt.Errorf("detections differ:\nunsplit: det=%v times=%v\nsplit:   det=%v times=%v",
			want.Detected, want.DetTime, merged.Detected, merged.DetTime)
	}
	if saveStates && !reflect.DeepEqual(want.FinalStates, merged.FinalStates) {
		return fmt.Errorf("final states differ")
	}
	return nil
}

// CheckSlab is the dense-vs-slab differential check for one triple, for
// faults of any model: the sequential dense outcome is the baseline and the
// slab kernel must reproduce it bit for bit — Detected, DetTime,
// NumDetected, Lines (when cfg.ObserveLines), FinalStates with the launch
// history (when cfg.SaveStates) — across Workers ∈ {1, 4, 8} × SlabLanes ∈
// {1, 2, 8} (multi-group batches, including tail batches narrower than W),
// under the automatic width (SlabLanes=0) at Workers ∈ {1, 4}, across slab
// runs of different widths on one reused simulator (the arena re-stride
// path) interleaved with a dense run (the shared-scratch path), and through
// split InitialStates/TimeOffset continuation replays at every tested W,
// with both halves on the slab kernel.
func CheckSlab(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) error {
	opts := func(k fsim.Kernel, workers, lanes int) fsim.Options {
		return fsim.Options{
			Init: cfg.Init, StopTime: cfg.StopTime, SaveStates: cfg.SaveStates,
			ObserveLines: cfg.ObserveLines, Workers: workers, Kernel: k,
			SlabLanes: lanes,
		}
	}
	want := fsim.Run(c, seq, faults, opts(fsim.KernelDense, 1, 0))
	for _, workers := range []int{1, 4, 8} {
		for _, lanes := range []int{1, 2, 8} {
			got := fsim.Run(c, seq, faults, opts(fsim.KernelSlab, workers, lanes))
			if err := sameFsimOutcome(want, got); err != nil {
				return fmt.Errorf("dense vs slab(Workers=%d, W=%d): %w", workers, lanes, err)
			}
		}
	}
	for _, workers := range []int{1, 4} {
		if err := sameFsimOutcome(want, fsim.Run(c, seq, faults, opts(fsim.KernelSlab, workers, 0))); err != nil {
			return fmt.Errorf("dense vs slab(Workers=%d, automatic W): %w", workers, err)
		}
	}
	// One reused simulator: the arena re-strides between widths, a dense
	// run in the middle reuses the same simulator's scratch, and the slab
	// must still match afterwards.
	s := fsim.New(c)
	for round, lanes := range []int{2, 8, 2} {
		got := s.Run(seq, faults, opts(fsim.KernelSlab, 1, lanes))
		if err := sameFsimOutcome(want, got); err != nil {
			return fmt.Errorf("reused simulator, slab round %d (W=%d): %w", round, lanes, err)
		}
	}
	if err := sameFsimOutcome(want, s.Run(seq, faults, opts(fsim.KernelDense, 1, 0))); err != nil {
		return fmt.Errorf("reused simulator, dense after slab: %w", err)
	}
	if err := sameFsimOutcome(want, s.Run(seq, faults, opts(fsim.KernelSlab, 1, 4))); err != nil {
		return fmt.Errorf("reused simulator, slab after dense: %w", err)
	}
	if splits(seq, faults, cfg) {
		for _, lanes := range []int{1, 2, 8} {
			merged := splitRun(c, seq, faults, cfg, fsim.Options{Kernel: fsim.KernelSlab, SlabLanes: lanes, Workers: cfg.Workers})
			if err := sameSplit(want, merged, cfg.SaveStates); err != nil {
				return fmt.Errorf("slab split continuation (W=%d, Workers=%d): %w", lanes, cfg.Workers, err)
			}
		}
	}
	return nil
}

// CheckTrace demands the detection-provenance trace (fsim.Options.Trace) be
// byte-identical in its canonical form across both kernels and Workers
// ∈ {1, 4, 8}, and consistent with the (equally bit-identical) outcome: one
// event per detected fault. This is the determinism contract of
// obsv.Trace.CanonicalBytes — worker and kernel are annotations only.
func CheckTrace(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, cfg Config) error {
	run := func(k fsim.Kernel, workers int) (*obsv.Trace, *fsim.Outcome) {
		tr := obsv.NewTrace()
		out := fsim.Run(c, seq, faults, fsim.Options{
			Init: cfg.Init, StopTime: cfg.StopTime,
			Workers: workers, Kernel: k, Trace: tr,
		})
		return tr, out
	}
	refTrace, refOut := run(fsim.KernelDense, 1)
	want := refTrace.CanonicalBytes()
	if n := refTrace.NumDetections(); n != refOut.NumDetected {
		return fmt.Errorf("trace has %d detection events, outcome detected %d", n, refOut.NumDetected)
	}
	for _, k := range []fsim.Kernel{fsim.KernelDense, fsim.KernelSlab} {
		for _, workers := range []int{1, 4, 8} {
			if k == fsim.KernelDense && workers == 1 {
				continue // the reference run above
			}
			tr, out := run(k, workers)
			if err := sameFsimOutcome(refOut, out); err != nil {
				return fmt.Errorf("%v(Workers=%d): %w", k, workers, err)
			}
			if got := tr.CanonicalBytes(); !bytes.Equal(want, got) {
				return fmt.Errorf("%v(Workers=%d): canonical trace differs from dense(Workers=1):\nA:\n%s\nB:\n%s",
					k, workers, want, got)
			}
		}
	}
	return nil
}

// sameFsimOutcome demands two fsim outcomes be bit-identical (the
// determinism guarantee of Options.Workers).
func sameFsimOutcome(a, b *fsim.Outcome) error {
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("outcomes differ:\nA: det=%v times=%v n=%d\nB: det=%v times=%v n=%d",
			a.Detected, a.DetTime, a.NumDetected, b.Detected, b.DetTime, b.NumDetected)
	}
	return nil
}

// CheckFaultFree drives fsim's fault-free machine (slot 0 of the OutputHook
// primary-output words) and compares it cycle for cycle against the scalar
// logic simulator, also demanding every word be legally encoded (no (1,1)
// dual-rail slots).
func CheckFaultFree(c *circuit.Circuit, seq *sim.Sequence, init logic.V) error {
	want := sim.New(c, init).Run(seq)
	// One fault, so exactly one group invokes the hook once per time unit.
	faults := fault.Universe(c)[:1]
	var mismatch error
	cycles := 0
	fsim.Run(c, seq, faults, fsim.Options{
		Init: init,
		OutputHook: func(lo, hi, u int, po []logic.W) {
			cycles++
			if mismatch != nil {
				return
			}
			for k, w := range po {
				if !w.Valid() {
					mismatch = fmt.Errorf("t=%d output %d: illegal dual-rail word %s", u, k, w)
					return
				}
				if got := w.Get(0); got != want[u][k] {
					mismatch = fmt.Errorf("t=%d output %d: fsim fault-free %v, sim %v", u, k, got, want[u][k])
					return
				}
			}
		},
	})
	if mismatch != nil {
		return mismatch
	}
	if cycles != seq.Len() {
		return fmt.Errorf("hook saw %d cycles for a %d-unit sequence", cycles, seq.Len())
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
