package fsim

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestHotPathCounters is the check that Run publishes exactly its own
// Outcome.Work to the process-wide telemetry counters, field for field, and
// the run's NumDetected on fsim.faults_dropped: at one lane and at the
// automatic width, at Workers 1 and 4, for a plain run, a Section 4.2 run whose group 0 detects nothing
// (an all-X sequence) and a run with a pre-cancelled Ctx. It also checks
// the work itself under every fault model: gate_evals == vectors × gates,
// the deleted event kernel's fsim.gates_skipped and fsim.sweep_fallbacks
// stay at 0, and slab passes are counted, for model faults too.
func TestHotPathCounters(t *testing.T) {
	s298 := iscas.MustLoad("s298")
	random := sim.RandomSequence(randutil.New(7), s298.NumInputs(), 32)
	blank := sim.NewSequence(s298.NumInputs())
	for u := 0; u < 4; u++ {
		vec := make([]logic.V, s298.NumInputs())
		for i := range vec {
			vec[i] = logic.X
		}
		blank.Append(vec)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	universe := fault.CollapsedUniverse(s298)
	cases := []struct {
		name string
		seq  *sim.Sequence
		opts Options
	}{
		{"plain", random, Options{Init: logic.Zero}},
		{"abort", blank, Options{Init: logic.X, AbortAfterFirstGroupIfNone: true}},
		{"cancelled", random, Options{Init: logic.Zero, Ctx: cancelled}},
	}
	for _, tc := range cases {
		for _, lanes := range []int{1, 0} {
			for _, workers := range []int{1, 4} {
				label := fmt.Sprintf("%s/SlabLanes=%d/Workers=%d", tc.name, lanes, workers)
				opts := tc.opts
				opts.SlabLanes, opts.Workers = lanes, workers
				before := telemetry.Counters()
				out := Run(s298, tc.seq, universe, opts)
				checkPublished(t, label, telemetry.Counters().Sub(before), out)
				if tc.name == "abort" && (out.Work.GroupPasses != 1 || out.NumDetected != 0) {
					t.Errorf("%s: %d group passes, %d detected: want the abort after group 0", label, out.Work.GroupPasses, out.NumDetected)
				}
			}
		}
	}

	c := iscas.MustLoad("s27")
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 64)
	for _, m := range []fault.Model{fault.StuckAt{}, fault.Transition{}, fault.Bridging{}} {
		faults := fault.CollapsedUniverseFor(c, m)
		for _, lanes := range []int{1, 0} {
			label := fmt.Sprintf("%s/SlabLanes=%d", m.Name(), lanes)
			before := telemetry.Counters()
			out := Run(c, seq, faults, Options{Init: logic.X, SaveStates: true, SlabLanes: lanes})
			d := telemetry.Counters().Sub(before)
			checkPublished(t, label, d, out)

			groups := (len(faults) + GroupSize - 1) / GroupSize
			if got := out.Work.GroupPasses; got != int64(groups) {
				t.Errorf("%s: group passes = %d, want %d", label, got, groups)
			}
			// SaveStates disables the early exit, so every group simulates
			// the full sequence and the vector count is exact.
			wantVecs := int64(groups * seq.Len())
			if got := out.Work.Vectors; got != wantVecs {
				t.Errorf("%s: vectors = %d, want %d", label, got, wantVecs)
			}
			if got := out.Work.GateEvals; got != wantVecs*int64(c.NumGates()) {
				t.Errorf("%s: gate evals %d, want %d", label, got, wantVecs*int64(c.NumGates()))
			}
			for _, id := range []telemetry.CounterID{telemetry.CtrGatesSkipped, telemetry.CtrSweepFallbacks} {
				if got := d.Get(id); got != 0 {
					t.Errorf("%s: %s delta = %d, want 0", label, id.Name(), got)
				}
			}
			if got := out.Work.Slab.Passes; got == 0 {
				t.Errorf("%s: no slab pass counted", label)
			}
		}
	}
}

// checkPublished demands the telemetry delta d around one Run be that run's
// Work, field for field, and its NumDetected on fsim.faults_dropped.
func checkPublished(t *testing.T, label string, d telemetry.Snapshot, out *Outcome) {
	t.Helper()
	got := Work{
		GateEvals:       d.Get(telemetry.CtrGateEvals),
		Vectors:         d.Get(telemetry.CtrVectors),
		GroupPasses:     d.Get(telemetry.CtrGroupPasses),
		GroupsCancelled: d.Get(telemetry.CtrGroupsCancelled),
		RepeatExits:     d.Get(telemetry.CtrRepeatExits),
		Slab: SlabWork{
			Passes:     d.Get(telemetry.CtrSlabPasses),
			LanesIdle:  d.Get(telemetry.CtrSlabLanesIdle),
			LaneCycles: d.Get(telemetry.CtrSlabLaneCycles),
		},
	}
	if got != out.Work {
		t.Errorf("%s: published %+v, Outcome.Work %+v", label, got, out.Work)
	}
	if n := d.Get(telemetry.CtrFaultsDropped); n != int64(out.NumDetected) {
		t.Errorf("%s: fsim.faults_dropped delta = %d, want NumDetected %d", label, n, out.NumDetected)
	}
}

// BenchmarkRunGroupTelemetryOverhead pins the allocation count of the hot
// loop with telemetry compiled in but no sink installed: counters are plain
// atomic adds, made once per Run from its Outcome.Work, so the simulator
// must not allocate any more than it did before instrumentation.
func BenchmarkRunGroupTelemetryOverhead(b *testing.B) {
	c, err := iscas.Load("s298")
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)[:GroupSize]
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 256)
	s := New(c)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(seq, faults, Options{Init: logic.Zero})
	}
}
