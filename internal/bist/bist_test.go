package bist

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/atpg"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
)

// s298Run prepares a core result for the synthetic s298 (reset-to-0, so
// signatures are clean).
func s298Run(t *testing.T) *core.Result {
	t.Helper()
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
	r, err := core.Run(c, ar.Seq, targets, detTime, core.Options{LG: 300, Init: logic.Zero, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunSessionRandomSequence(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(3), c.NumInputs(), 400)
	rep, err := RunSession(context.Background(), c, seq, faults, logic.Zero, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check ByCompare against a plain fsim run.
	out := fsim.Run(c, seq, faults, fsim.Options{Init: logic.Zero})
	for i := range faults {
		if rep.ByCompare[i] != out.Detected[i] {
			t.Fatalf("ByCompare[%d] inconsistent", i)
		}
	}
	if rep.NumByCompare != out.NumDetected {
		t.Fatalf("compare totals differ: %d vs %d", rep.NumByCompare, out.NumDetected)
	}
	// Signature detection can only lose to compare detection (aliasing),
	// never gain.
	for i := range faults {
		if rep.BySignature[i] && !rep.ByCompare[i] {
			t.Fatalf("fault %d detected by signature but not by compare", i)
		}
	}
	// With a 16-bit MISR, aliasing should be rare (expected ~2^-16).
	if rep.Aliased > rep.NumByCompare/20 {
		t.Fatalf("aliasing suspiciously high: %d of %d", rep.Aliased, rep.NumByCompare)
	}
	if rep.NumBySignature+rep.Aliased+countUndetectedByCompare(rep) != len(faults)-rep.Tainted {
		t.Logf("totals: sig=%d aliased=%d tainted=%d compare=%d all=%d",
			rep.NumBySignature, rep.Aliased, rep.Tainted, rep.NumByCompare, len(faults))
	}
	if rep.SessionLength != 400 {
		t.Fatalf("session length %d", rep.SessionLength)
	}
	if rep.Coverage() <= 0 || rep.Coverage() > 1 {
		t.Fatalf("coverage %v", rep.Coverage())
	}
}

func countUndetectedByCompare(r *Report) int {
	n := 0
	for _, d := range r.ByCompare {
		if !d {
			n++
		}
	}
	return n
}

func TestRunWeightedSessionCoversMostTargets(t *testing.T) {
	r := s298Run(t)
	rep, err := RunWeightedSession(context.Background(), r, r.Omega, 20, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Tainted != 0 {
		t.Fatalf("%d tainted faults on a reset circuit", rep.Tainted)
	}
	// Continuous application without per-window reset may lose a few
	// detections relative to the per-window guarantee, and the MISR may
	// alias a few more, but the bulk of the coverage must remain.
	if rep.Coverage() < 0.9 {
		t.Fatalf("signature coverage %.3f suspiciously low", rep.Coverage())
	}
	if rep.NumBySignature > rep.NumByCompare {
		t.Fatal("signature detected more than compare")
	}
}

func TestRunSessionTaintWithXInit(t *testing.T) {
	// s27 with unknown initial state produces X outputs early on: slot 0
	// (golden) is tainted, so no fault can be detected by signature.
	c := iscas.MustLoad("s27")
	seq, err := sim.ParseSequence(iscas.S27TestSequence)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	rep, err := RunSession(context.Background(), c, seq, faults, logic.X, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumBySignature != 0 {
		t.Fatalf("tainted golden still detected %d faults by signature", rep.NumBySignature)
	}
	if rep.NumByCompare == 0 {
		t.Fatal("compare detection should still work with X init")
	}
}

func TestRunSessionErrors(t *testing.T) {
	c := iscas.MustLoad("s27")
	empty := sim.NewSequence(c.NumInputs())
	if _, err := RunSession(context.Background(), c, empty, nil, logic.Zero, 16, 1); err == nil {
		t.Error("empty session accepted")
	}
	seq, _ := sim.ParseSequence(iscas.S27TestSequence)
	if _, err := RunSession(context.Background(), c, seq, nil, logic.Zero, 99, 1); err == nil {
		t.Error("bad MISR width accepted")
	}
}

func TestGoldenSignatureStable(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(4), c.NumInputs(), 200)
	a, err := RunSession(context.Background(), c, seq, faults, logic.Zero, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSession(context.Background(), c, seq, faults[:10], logic.Zero, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.GoldenSignature != b.GoldenSignature {
		t.Fatalf("golden signature depends on the fault list: %x vs %x",
			a.GoldenSignature, b.GoldenSignature)
	}
}

// TestSelftestS298WorkersInvariant replays `wbist selftest s298` (seed 1,
// 16-bit MISR): the Report is identical at Workers 1, 2 and 4, and its
// figures are the ones that command prints.
func TestSelftestS298WorkersInvariant(t *testing.T) {
	r, err := expt.RunCircuit("s298", expt.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	session := core.ConcatSequence(r.Compacted, r.Core.WindowLen())
	var want *Report
	for _, workers := range []int{1, 2, 4} {
		rep, err := RunSession(context.Background(), r.Circuit, session, r.Core.TargetFaults, r.Init, 16, workers)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = rep
			continue
		}
		if !reflect.DeepEqual(rep, want) {
			t.Fatalf("Workers=%d: report differs from Workers=1", workers)
		}
	}
	got := [...]int{int(want.GoldenSignature), want.SessionLength, len(want.ByCompare),
		want.NumByCompare, want.NumBySignature, want.Aliased, want.Tainted}
	if pin := [...]int{0x5903, 4000, 431, 430, 430, 0, 0}; got != pin {
		t.Fatalf("golden, cycles, targets, by compare, by signature, aliased, tainted = %#x %v, want %#x %v",
			got[0], got[1:], pin[0], pin[1:])
	}
}
