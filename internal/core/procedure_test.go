package core

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/lfsr"
	"repro/internal/logic"
	"repro/internal/sim"
)

// runS27 executes the full procedure on s27 with the paper's Table 1
// sequence.
func runS27(t *testing.T, opts Options) *Result {
	t.Helper()
	c := iscas.MustLoad("s27")
	seq, err := sim.ParseSequence(iscas.S27TestSequence)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	out := fsim.Run(c, seq, faults, fsim.Options{Init: opts.Init})
	var targets []fault.Fault
	var detTime []int
	for i := range faults {
		if out.Detected[i] {
			targets = append(targets, faults[i])
			detTime = append(detTime, out.DetTime[i])
		}
	}
	r, err := Run(c, seq, targets, detTime, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r.WindowLen() < opts.LG {
		t.Fatalf("window length %d below L_G %d", r.WindowLen(), opts.LG)
	}
	return r
}

// verifyCoverage checks that omega's sequences jointly detect all target
// faults of r.
func verifyCoverage(t *testing.T, r *Result, omega []Assignment) {
	t.Helper()
	lg := r.WindowLen()
	for i, dt := range r.DetTime {
		if dt >= lg {
			t.Fatalf("target %d detected at %d, past the %d-cycle window", i, dt, lg)
		}
	}
	undet := make([]bool, len(r.TargetFaults))
	for i := range undet {
		undet[i] = true
	}
	for _, a := range omega {
		seqG := a.GenSequence(lg)
		out := fsim.Run(r.Circuit, seqG, r.TargetFaults, fsim.Options{Init: r.Init})
		for i := range r.TargetFaults {
			if out.Detected[i] {
				undet[i] = false
			}
		}
	}
	for i, u := range undet {
		if u {
			t.Errorf("target fault %s not covered by omega",
				r.TargetFaults[i].String(r.Circuit))
		}
	}
}

func TestProcedureS27CompleteCoverage(t *testing.T) {
	r := runS27(t, Options{LG: 100, Init: logic.X, Seed: 1})
	if r.Unreproduced != 0 {
		t.Fatalf("%d target faults abandoned", r.Unreproduced)
	}
	if len(r.Omega) == 0 {
		t.Fatal("no weight assignments selected")
	}
	if r.Coverage() != 1.0 {
		t.Fatalf("coverage %.3f", r.Coverage())
	}
	verifyCoverage(t, r, r.Omega)
	// Every assignment must be valid and have detected something new.
	for j, a := range r.Omega {
		if err := a.Validate(4); err != nil {
			t.Errorf("Omega[%d]: %v", j, err)
		}
		if r.Traces[j].NewlyDetected == 0 {
			t.Errorf("Omega[%d] recorded with 0 new detections", j)
		}
	}
}

func TestWindowLen(t *testing.T) {
	// s27's T is 10 long: an L_G of 100 stands, an L_G of 3 is raised to the
	// latest detection time + 1.
	if r := runS27(t, Options{LG: 100, Init: logic.X, Seed: 1}); r.WindowLen() != 100 {
		t.Fatalf("window length %d at L_G 100", r.WindowLen())
	}
	r := runS27(t, Options{LG: 3, Init: logic.X, Seed: 1})
	maxU := 0
	for _, dt := range r.DetTime {
		maxU = max(maxU, dt)
	}
	if maxU+1 <= 3 || r.WindowLen() != maxU+1 {
		t.Fatalf("window length %d at L_G 3, latest detection time %d", r.WindowLen(), maxU)
	}
	verifyCoverage(t, r, r.Omega)
	verifyCoverage(t, r, ReverseOrderCompact(r, 1))
}

func TestProcedureMaxSubseqLenShorterThanT(t *testing.T) {
	// The paper's headline observation: the maximum subsequence length is
	// significantly shorter than T. For s27 (|T| = 10) the subsequences
	// should not need to reach length 10.
	r := runS27(t, Options{LG: 100, Init: logic.X, Seed: 1})
	st := Accounting(r.Omega)
	if st.MaxLen >= 10 {
		t.Fatalf("max subsequence length %d is not shorter than |T| = 10", st.MaxLen)
	}
}

func TestReverseOrderCompactPreservesCoverage(t *testing.T) {
	r := runS27(t, Options{LG: 100, Init: logic.X, Seed: 1})
	compacted := ReverseOrderCompact(r, 1)
	if len(compacted) > len(r.Omega) {
		t.Fatalf("compaction grew omega: %d > %d", len(compacted), len(r.Omega))
	}
	if len(compacted) == 0 {
		t.Fatal("compaction removed everything")
	}
	verifyCoverage(t, r, compacted)
}

func TestDetectionSets(t *testing.T) {
	r := runS27(t, Options{LG: 100, Init: logic.X, Seed: 1})
	sets := DetectionSets(r, 1)
	if len(sets) != len(r.Omega) {
		t.Fatalf("%d sets for %d assignments", len(sets), len(r.Omega))
	}
	// Union of all sets must cover all targets (procedure reached 100%).
	covered := make([]bool, len(r.TargetFaults))
	for _, s := range sets {
		for i := range covered {
			if s.Get(i) {
				covered[i] = true
			}
		}
	}
	for i, cvd := range covered {
		if !cvd {
			t.Errorf("target %d missing from union of detection sets", i)
		}
	}
	// Each set must at least contain what the trace reported as new.
	for j, s := range sets {
		if s.Count() < r.Traces[j].NewlyDetected {
			t.Errorf("set %d smaller (%d) than its trace count (%d)",
				j, s.Count(), r.Traces[j].NewlyDetected)
		}
	}
}

func TestProcedureOnSyntheticCircuitWithATPG(t *testing.T) {
	c := iscas.MustLoad("s298")
	ar := atpg.Generate(c, atpg.Options{Seed: 5, Init: logic.Zero})
	var targets []fault.Fault
	var detTime []int
	for i := range ar.Faults {
		if ar.Detected[i] {
			targets = append(targets, ar.Faults[i])
			detTime = append(detTime, ar.DetTime[i])
		}
	}
	r, err := Run(c, ar.Seq, targets, detTime, Options{LG: 500, Init: logic.Zero, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.Unreproduced != 0 {
		t.Fatalf("%d targets abandoned", r.Unreproduced)
	}
	if r.WindowLen() < 500 {
		t.Fatalf("window length %d below L_G 500", r.WindowLen())
	}
	verifyCoverage(t, r, r.Omega)
	st := Accounting(r.Omega)
	if st.MaxLen >= ar.Seq.Len() {
		t.Errorf("max subsequence length %d not shorter than |T| = %d", st.MaxLen, ar.Seq.Len())
	}
	if st.NumFSMs > st.NumSubs {
		t.Errorf("more FSMs (%d) than subsequences (%d)", st.NumFSMs, st.NumSubs)
	}
}

func TestProcedureAblationNoForceFullLength(t *testing.T) {
	r := runS27(t, Options{LG: 100, Init: logic.X, Seed: 1, NoForceFullLength: true})
	// Without the modification some faults may be abandoned, but everything
	// that was covered must verify.
	covered := 0
	for range r.TargetFaults {
		covered++
	}
	if covered == 0 {
		t.Fatal("no targets")
	}
	if r.Coverage() < 0.5 {
		t.Fatalf("ablation coverage %.3f suspiciously low", r.Coverage())
	}
}

func TestProcedureAblationNoSampleFirst(t *testing.T) {
	a := runS27(t, Options{LG: 100, Init: logic.X, Seed: 1})
	b := runS27(t, Options{LG: 100, Init: logic.X, Seed: 1, NoSampleFirst: true})
	// Disabling the early abort cannot reduce coverage.
	if b.Coverage() < a.Coverage() {
		t.Fatal("disabling sample-first lost coverage")
	}
	verifyCoverage(t, b, b.Omega)
}

func TestProcedureAblationNoMatchOrdering(t *testing.T) {
	r := runS27(t, Options{LG: 100, Init: logic.X, Seed: 1, NoMatchOrdering: true})
	if r.Unreproduced != 0 {
		t.Fatalf("%d targets abandoned without match ordering", r.Unreproduced)
	}
	verifyCoverage(t, r, r.Omega)
}

func TestRunValidatesArguments(t *testing.T) {
	c := iscas.MustLoad("s27")
	seq, _ := sim.ParseSequence(iscas.S27TestSequence)
	faults := fault.CollapsedUniverse(c)
	// Mismatched lengths.
	if _, err := Run(c, seq, faults[:2], []int{1}, Options{}); err == nil {
		t.Error("mismatched lengths accepted")
	}
	// Detection time outside T.
	if _, err := Run(c, seq, faults[:1], []int{99}, Options{}); err == nil {
		t.Error("out-of-range detection time accepted")
	}
	// Wrong sequence width.
	wide := sim.NewSequence(5)
	wide.Append(make([]logic.V, 5))
	if _, err := Run(c, wide, faults[:1], []int{0}, Options{}); err == nil {
		t.Error("wrong width accepted")
	}
}

func TestRunEmptyTargets(t *testing.T) {
	c := iscas.MustLoad("s27")
	seq, _ := sim.ParseSequence(iscas.S27TestSequence)
	r, err := Run(c, seq, nil, nil, Options{LG: 10, Init: logic.X})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Omega) != 0 || r.Coverage() != 1.0 {
		t.Fatal("empty target set should yield empty omega at full coverage")
	}
}

func TestTracesConsistent(t *testing.T) {
	r := runS27(t, Options{LG: 100, Init: logic.X, Seed: 1})
	total := 0
	for j, tr := range r.Traces {
		if tr.Assignment.String() != r.Omega[j].String() {
			t.Errorf("trace %d assignment mismatch", j)
		}
		if tr.LS < 1 || tr.U < 0 || tr.U >= r.T.Len() {
			t.Errorf("trace %d has implausible u=%d ls=%d", j, tr.U, tr.LS)
		}
		if !r.Omega[j].HasLen(tr.LS) {
			t.Errorf("trace %d: assignment lacks a subsequence of length L_S=%d", j, tr.LS)
		}
		total += tr.NewlyDetected
	}
	if total != len(r.TargetFaults) {
		t.Errorf("traces account for %d detections, want %d", total, len(r.TargetFaults))
	}
}

var _ = circuit.Input // pin import

func TestProcedureWithRandomWindows(t *testing.T) {
	c := iscas.MustLoad("s298")
	ar := atpg.Generate(c, atpg.Options{Seed: 5, Init: logic.Zero})
	var targets []fault.Fault
	var detTime []int
	for i := range ar.Faults {
		if ar.Detected[i] {
			targets = append(targets, ar.Faults[i])
			detTime = append(detTime, ar.DetTime[i])
		}
	}
	base, err := Run(c, ar.Seq, targets, detTime, Options{LG: 500, Init: logic.Zero, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	withRand, err := Run(c, ar.Seq, targets, detTime, Options{LG: 500, Init: logic.Zero, Seed: 7, RandomWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if withRand.RandomDetected == 0 {
		t.Fatal("random windows detected nothing on a random-testable circuit")
	}
	if withRand.RandomSourceWidth != 8 {
		t.Fatalf("random source width %d", withRand.RandomSourceWidth)
	}
	if withRand.Unreproduced != 0 {
		t.Fatalf("%d targets abandoned", withRand.Unreproduced)
	}
	// The paper's prediction: random windows reduce the number of
	// subsequences that need generating.
	sBase := Accounting(base.Omega)
	sRand := Accounting(withRand.Omega)
	if sRand.NumSubs > sBase.NumSubs {
		t.Errorf("random windows increased subsequence count: %d vs %d",
			sRand.NumSubs, sBase.NumSubs)
	}
	// Random-phase detections plus weight-assignment detections must cover
	// every target exactly once.
	total := withRand.RandomDetected
	for _, tr := range withRand.Traces {
		total += tr.NewlyDetected
	}
	if total != len(targets) {
		t.Fatalf("detections account for %d of %d targets", total, len(targets))
	}
	// End-to-end: the hardware schedule (LFSR windows + weight windows)
	// must cover every target when applied per window.
	undet := make([]bool, len(targets))
	for i := range undet {
		undet[i] = true
	}
	src, err := lfsr.NewXNOR(withRand.RandomSourceWidth)
	if err != nil {
		t.Fatal(err)
	}
	mark := func(seq *sim.Sequence) {
		out := fsim.Run(c, seq, targets, fsim.Options{Init: logic.Zero})
		for i := range targets {
			if out.Detected[i] {
				undet[i] = false
			}
		}
	}
	for w := 0; w < 2; w++ {
		mark(src.ParallelSequence(c.NumInputs(), 500))
	}
	for _, a := range withRand.Omega {
		mark(a.GenSequence(500))
	}
	for i, u := range undet {
		if u {
			t.Errorf("target %s not covered by the schedule", targets[i].String(c))
		}
	}
}
