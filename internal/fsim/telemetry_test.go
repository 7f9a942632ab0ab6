package fsim

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestHotPathCounters checks that a simulation run advances the process-wide
// telemetry counters by the expected amounts, for every kernel. The
// kernel-independent accounting invariant is gate_evals + gates_skipped ==
// vectors × gates: the dense and slab kernels evaluate everything (skipped
// 0), the event kernel splits the same total between evaluated and skipped.
func TestHotPathCounters(t *testing.T) {
	c, err := iscas.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 64)

	for _, kernel := range []Kernel{KernelDense, KernelEvent, KernelSlab} {
		before := telemetry.Counters()
		out := Run(c, seq, faults, Options{Init: logic.X, SaveStates: true, Kernel: kernel})
		d := telemetry.Counters().Sub(before)

		groups := (len(faults) + GroupSize - 1) / GroupSize
		if got := d.Get(telemetry.CtrGroupPasses); got != int64(groups) {
			t.Errorf("%v: group passes delta = %d, want %d", kernel, got, groups)
		}
		// SaveStates disables the early exit, so every group simulates the
		// full sequence and the vector count is exact.
		wantVecs := int64(groups * seq.Len())
		if got := d.Get(telemetry.CtrVectors); got != wantVecs {
			t.Errorf("%v: vectors delta = %d, want %d", kernel, got, wantVecs)
		}
		evals := d.Get(telemetry.CtrGateEvals)
		skipped := d.Get(telemetry.CtrGatesSkipped)
		if evals+skipped != wantVecs*int64(c.NumGates()) {
			t.Errorf("%v: gate evals %d + skipped %d = %d, want %d",
				kernel, evals, skipped, evals+skipped, wantVecs*int64(c.NumGates()))
		}
		if got := d.Get(telemetry.CtrFaultsDropped); got != int64(out.NumDetected) {
			t.Errorf("%v: faults dropped delta = %d, want %d detected", kernel, got, out.NumDetected)
		}
		switch kernel {
		case KernelDense, KernelSlab:
			for _, id := range []telemetry.CounterID{
				telemetry.CtrEventsScheduled, telemetry.CtrGatesSkipped, telemetry.CtrConeHits,
			} {
				if got := d.Get(id); got != 0 {
					t.Errorf("%v: %s delta = %d, want 0", kernel, id.Name(), got)
				}
			}
		case KernelEvent:
			if sched, hits := d.Get(telemetry.CtrEventsScheduled), d.Get(telemetry.CtrConeHits); hits > sched {
				t.Errorf("event: cone hits %d exceed events scheduled %d", hits, sched)
			}
		}
		if got := d.Get(telemetry.CtrSlabPasses); (got > 0) != (kernel == KernelSlab) {
			t.Errorf("%v: slab passes delta = %d, want > 0 only on the slab kernel", kernel, got)
		}
	}
}

// BenchmarkRunGroupTelemetryOverhead pins the allocation count of the hot
// loop with telemetry compiled in but no sink installed: counters are plain
// atomic adds batched per group pass, so the simulator must not allocate any
// more than it did before instrumentation.
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
