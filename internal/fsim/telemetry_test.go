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
// telemetry counters by the expected amounts, on both kernels and under
// every fault model: gate_evals == vectors × gates (both kernels count
// dense-equivalent evaluations), the deleted event kernel's
// fsim.gates_skipped and fsim.sweep_fallbacks stay at 0, and
// fsim.slab_passes moves exactly on the slab kernel — for model faults too,
// so a silent fallback to dense cannot come back.
func TestHotPathCounters(t *testing.T) {
	c, err := iscas.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 64)

	for _, m := range []fault.Model{fault.StuckAt{}, fault.Transition{}, fault.Bridging{}} {
		faults := fault.CollapsedUniverseFor(c, m)
		for _, kernel := range []Kernel{KernelDense, KernelSlab} {
			label := m.Name() + "/" + kernel.String()
			before := telemetry.Counters()
			out := Run(c, seq, faults, Options{Init: logic.X, SaveStates: true, Kernel: kernel})
			d := telemetry.Counters().Sub(before)

			groups := (len(faults) + GroupSize - 1) / GroupSize
			if got := d.Get(telemetry.CtrGroupPasses); got != int64(groups) {
				t.Errorf("%s: group passes delta = %d, want %d", label, got, groups)
			}
			// SaveStates disables the early exit, so every group simulates
			// the full sequence and the vector count is exact.
			wantVecs := int64(groups * seq.Len())
			if got := d.Get(telemetry.CtrVectors); got != wantVecs {
				t.Errorf("%s: vectors delta = %d, want %d", label, got, wantVecs)
			}
			if got := d.Get(telemetry.CtrGateEvals); got != wantVecs*int64(c.NumGates()) {
				t.Errorf("%s: gate evals %d, want %d", label, got, wantVecs*int64(c.NumGates()))
			}
			if got := d.Get(telemetry.CtrFaultsDropped); got != int64(out.NumDetected) {
				t.Errorf("%s: faults dropped delta = %d, want %d detected", label, got, out.NumDetected)
			}
			for _, id := range []telemetry.CounterID{telemetry.CtrGatesSkipped, telemetry.CtrSweepFallbacks} {
				if got := d.Get(id); got != 0 {
					t.Errorf("%s: %s delta = %d, want 0", label, id.Name(), got)
				}
			}
			if got := d.Get(telemetry.CtrSlabPasses); (got > 0) != (kernel == KernelSlab) {
				t.Errorf("%s: slab passes delta = %d, want > 0 only on the slab kernel", label, got)
			}
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
