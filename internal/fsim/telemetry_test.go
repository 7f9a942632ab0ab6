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

// TestEarlyExitCountersKernelInvariant runs s298 without SaveStates against
// the stuck-at faults the sequence detects (as the pipeline does with its
// targets), so every fault group stops at its last detection, and requires
// the event and slab kernels to report exactly dense's work counters: the
// same vectors, group passes and dropped faults, and dense-equivalent
// evaluations (gate_evals + gates_skipped). On the slab kernel this is lane
// freezing at work — a lane whose group has finished stops counting even
// though its batch runs on.
func TestEarlyExitCountersKernelInvariant(t *testing.T) {
	checkEarlyExitKernelInvariant(t, "stuck-at")
}

// TestEarlyExitCountersPerModel repeats the early-exit kernel comparison of
// TestEarlyExitCountersKernelInvariant for every other fault model, so the
// transition and bridge fault lists also stop each group at the same vector
// on every kernel.
func TestEarlyExitCountersPerModel(t *testing.T) {
	for _, name := range fault.ModelNames() {
		if name != "stuck-at" {
			checkEarlyExitKernelInvariant(t, name)
		}
	}
}

// checkEarlyExitKernelInvariant runs s298 against the faults of the named
// model that a 200-vector random sequence detects, without SaveStates, and
// requires every kernel to report dense's vectors, group passes, dropped
// faults and gate_evals + gates_skipped.
func checkEarlyExitKernelInvariant(t *testing.T, model string) {
	t.Helper()
	c, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	m, err := fault.ModelByName(model)
	if err != nil {
		t.Fatal(err)
	}
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 200)
	universe := fault.CollapsedUniverseFor(c, m)
	var faults []fault.Fault
	for i, det := range Run(c, seq, universe, Options{Init: logic.Zero, Kernel: KernelDense}).Detected {
		if det {
			faults = append(faults, universe[i])
		}
	}
	type work struct{ vectors, passes, dropped, evals int64 }
	var dense work
	for _, kernel := range []Kernel{KernelDense, KernelEvent, KernelSlab} {
		before := telemetry.Counters()
		Run(c, seq, faults, Options{Init: logic.Zero, Kernel: kernel})
		d := telemetry.Counters().Sub(before)
		got := work{
			vectors: d.Get(telemetry.CtrVectors),
			passes:  d.Get(telemetry.CtrGroupPasses),
			dropped: d.Get(telemetry.CtrFaultsDropped),
			evals:   d.Get(telemetry.CtrGateEvals) + d.Get(telemetry.CtrGatesSkipped),
		}
		if kernel == KernelDense {
			dense = got
			// The early exit must actually fire for the case to mean
			// anything: fewer vectors than passes × sequence length.
			if got.vectors >= got.passes*int64(seq.Len()) {
				t.Errorf("%s: no group exited early (%d vectors, %d passes)", model, got.vectors, got.passes)
			}
			continue
		}
		if got != dense {
			t.Errorf("%s/%v: counters %+v, dense %+v", model, kernel, got, dense)
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
