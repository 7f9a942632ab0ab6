package expt

import (
	"testing"

	"repro/internal/iscas"
	"repro/internal/telemetry"
)

// TestPipelineCountersS298 pins the exact deterministic work counters of
// the s298 stuck-at pipeline at its defaults (Seed 1, InitFor, L_G 2000)
// at Workers 1 and 2. The counters depend only on the algorithm, never on
// the worker count or the slab kernel's lane width (gate evaluations count
// every group's vectors × gates as if it ran alone; gates_skipped, once the
// deleted event kernel's share of them, stays 0). A change in any value
// means the pipeline now does different work: a speedup that moves them
// must say so and update the literals.
//
// The counters are process-global, so this test must not run beside
// another counter-moving test (no t.Parallel here or elsewhere in the
// package).
func TestPipelineCountersS298(t *testing.T) {
	want := map[string]int64{
		"fsim.gate_evals+fsim.gates_skipped": 9_589_496,
		"fsim.vectors":                       80_584,
		"fsim.group_passes":                  441,
		"fsim.faults_dropped":                3_138,
		"fsim.repeat_exits":                  28,
		"core.candidates_scored":             21,
		"podem.backtracks":                   4_883,
	}
	for _, workers := range []int{1, 2} {
		c, err := iscas.Load("s298")
		if err != nil {
			t.Fatal(err)
		}
		before := telemetry.Counters()
		if _, err := RunPipeline(c, InitFor("s298"), Config{Seed: 1, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		d := telemetry.Counters().Sub(before)
		got := map[string]int64{
			"fsim.gate_evals+fsim.gates_skipped": d.Get(telemetry.CtrGateEvals) + d.Get(telemetry.CtrGatesSkipped),
			"fsim.vectors":                       d.Get(telemetry.CtrVectors),
			"fsim.group_passes":                  d.Get(telemetry.CtrGroupPasses),
			"fsim.faults_dropped":                d.Get(telemetry.CtrFaultsDropped),
			"fsim.repeat_exits":                  d.Get(telemetry.CtrRepeatExits),
			"core.candidates_scored":             d.Get(telemetry.CtrCandidates),
			"podem.backtracks":                   d.Get(telemetry.CtrBacktracks),
		}
		for name, w := range want {
			if got[name] != w {
				t.Errorf("Workers=%d: %s = %d, want %d", workers, name, got[name], w)
			}
		}
	}
}
