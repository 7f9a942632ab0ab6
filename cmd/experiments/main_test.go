package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// setFlags points the output-file and filter flags at test-owned values and
// restores them afterwards; the bench sections read these package globals
// instead of taking parameters.
func setFlags(t *testing.T, circuits string) (kernelJSON, slabJSON, benchJSON string) {
	t.Helper()
	dir := t.TempDir()
	kernelJSON = filepath.Join(dir, "kernel.json")
	slabJSON = filepath.Join(dir, "slab.json")
	benchJSON = filepath.Join(dir, "bench.json")
	modelJSON := filepath.Join(dir, "model.json")
	oldC, oldK, oldS, oldB := *flagCircuits, *flagKernelJSON, *flagSlabJSON, *flagBenchJSON
	oldM := *flagModelJSON
	*flagCircuits, *flagKernelJSON, *flagSlabJSON, *flagBenchJSON = circuits, kernelJSON, slabJSON, benchJSON
	*flagModelJSON = modelJSON
	t.Cleanup(func() {
		*flagCircuits, *flagKernelJSON, *flagSlabJSON, *flagBenchJSON = oldC, oldK, oldS, oldB
		*flagModelJSON = oldM
	})
	return
}

func decodeBench(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestKernelBench runs the kernelbench section on s27 with a short workload
// and checks the written file's schema and kernel-invariant counters.
func TestKernelBench(t *testing.T) {
	kernelJSON, _, _ := setFlags(t, "s27")
	cfg := wbist.Config{LG: 120, Seed: 1, Workers: 1}
	if err := kernelBench(cfg); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Schema   string `json:"schema"`
		Circuits []struct {
			Circuit string `json:"circuit"`
			Faults  int    `json:"faults"`
			Vectors int64  `json:"vectors"`
			Dense   struct {
				GateEvals int64 `json:"gate_evals"`
				WallNS    int64 `json:"wall_ns"`
			} `json:"dense"`
			Event struct {
				GateEvals    int64 `json:"gate_evals"`
				GatesSkipped int64 `json:"gates_skipped"`
				WallNS       int64 `json:"wall_ns"`
			} `json:"event"`
			EvalReduction float64 `json:"eval_reduction"`
		} `json:"circuits"`
	}
	decodeBench(t, kernelJSON, &out)
	if out.Schema != "wbist-bench-kernel/v1" {
		t.Fatalf("schema = %q", out.Schema)
	}
	if len(out.Circuits) != 1 || out.Circuits[0].Circuit != "s27" {
		t.Fatalf("circuits = %+v, want exactly s27", out.Circuits)
	}
	cb := out.Circuits[0]
	if cb.Faults <= 0 || cb.Vectors <= 0 || cb.Dense.GateEvals <= 0 || cb.Dense.WallNS <= 0 || cb.Event.WallNS <= 0 {
		t.Fatalf("implausible s27 row: %+v", cb)
	}
	// Effective evals (evaluated + provably skipped) are kernel-invariant.
	if cb.Event.GateEvals+cb.Event.GatesSkipped != cb.Dense.GateEvals {
		t.Fatalf("event evals %d + skipped %d != dense evals %d",
			cb.Event.GateEvals, cb.Event.GatesSkipped, cb.Dense.GateEvals)
	}
	if cb.EvalReduction <= 0 {
		t.Fatalf("eval_reduction = %v", cb.EvalReduction)
	}
}

// TestSlabBench runs the slabbench section on s27 with a short workload and
// checks the file's schema, counter invariants and allocation accounting.
func TestSlabBench(t *testing.T) {
	_, slabJSON, _ := setFlags(t, "s27")
	cfg := wbist.Config{LG: 120, Seed: 1, Workers: 1}
	if err := slabBench(cfg); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Schema   string `json:"schema"`
		Circuits []struct {
			Circuit   string `json:"circuit"`
			Faults    int    `json:"faults"`
			Groups    int    `json:"groups"`
			SlabLanes int    `json:"slab_lanes"`
			Dense     struct {
				GateEvals int64 `json:"gate_evals"`
			} `json:"dense"`
			Slab struct {
				GateEvals        int64 `json:"gate_evals"`
				AllocsPerRun     int64 `json:"allocs_per_run"`
				ColdAllocsPerRun int64 `json:"cold_allocs_per_run"`
				SlabPasses       int64 `json:"slab_passes"`
			} `json:"slab"`
			SpeedupVsDense float64 `json:"speedup_vs_dense"`
			AllocReduction float64 `json:"alloc_reduction"`
		} `json:"circuits"`
	}
	decodeBench(t, slabJSON, &out)
	if out.Schema != "wbist-bench-slab/v1" {
		t.Fatalf("schema = %q", out.Schema)
	}
	if len(out.Circuits) != 1 || out.Circuits[0].Circuit != "s27" {
		t.Fatalf("circuits = %+v, want exactly s27", out.Circuits)
	}
	cb := out.Circuits[0]
	if cb.Groups <= 0 || cb.SlabLanes <= 0 || cb.SlabLanes > cb.Groups {
		t.Fatalf("implausible lane/group row: %+v", cb)
	}
	// Lane freezing keeps the slab's eval counter dense-equivalent.
	if cb.Slab.GateEvals != cb.Dense.GateEvals {
		t.Fatalf("slab evals %d != dense evals %d", cb.Slab.GateEvals, cb.Dense.GateEvals)
	}
	if cb.Slab.SlabPasses <= 0 || cb.SpeedupVsDense <= 0 {
		t.Fatalf("implausible slab row: %+v", cb)
	}
	// The warm arena must beat a fresh simulator's first-run scratch build.
	if cb.Slab.AllocsPerRun >= cb.Slab.ColdAllocsPerRun {
		t.Fatalf("warm allocs %d not below cold allocs %d",
			cb.Slab.AllocsPerRun, cb.Slab.ColdAllocsPerRun)
	}
	if cb.AllocReduction < 1 {
		t.Fatalf("alloc_reduction = %v", cb.AllocReduction)
	}
}

// TestBenchJSON runs the pipeline bench section on s298 (the CI bench-smoke
// circuit) and checks the written baseline row.
func TestBenchJSON(t *testing.T) {
	_, _, benchPath := setFlags(t, "s298")
	cfg := wbist.Config{Seed: 1, Workers: 2}
	if err := benchJSON(cfg); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Schema   string `json:"schema"`
		Circuits []struct {
			Circuit  string           `json:"circuit"`
			WallNS   int64            `json:"wall_ns"`
			Counters map[string]int64 `json:"counters"`
		} `json:"circuits"`
	}
	decodeBench(t, benchPath, &out)
	if out.Schema != "wbist-bench-pipeline/v1" {
		t.Fatalf("schema = %q", out.Schema)
	}
	if len(out.Circuits) != 1 || out.Circuits[0].Circuit != "s298" {
		t.Fatalf("circuits = %+v, want exactly s298", out.Circuits)
	}
	cb := out.Circuits[0]
	if cb.WallNS <= 0 || cb.Counters["fsim.gate_evals"] <= 0 || cb.Counters["fsim.vectors"] <= 0 {
		t.Fatalf("implausible s298 row: %+v", cb)
	}
}

// TestWeightedWorkload checks the shared bench stimulus: deterministic for a
// seed, requested length, and binary vectors only.
func TestWeightedWorkload(t *testing.T) {
	a := weightedWorkload(5, 1, 50)
	b := weightedWorkload(5, 1, 50)
	if a.Len() != 50 || b.Len() != 50 {
		t.Fatalf("lengths %d, %d, want 50", a.Len(), b.Len())
	}
	for u := 0; u < a.Len(); u++ {
		for i := 0; i < 5; i++ {
			if a.At(u, i) != b.At(u, i) {
				t.Fatalf("workload not deterministic at u=%d i=%d", u, i)
			}
		}
	}
	if c := weightedWorkload(5, 2, 50); c.Len() != 50 {
		t.Fatalf("seed-2 length %d", c.Len())
	}
}

// TestModelBench runs the modelbench section on s298 (the smallest circuit
// whose bench workload detects faults under every model) with a short
// workload and checks the written file: schema, one row per fault model, and
// the dense-vs-event bit-identity invariants bench_compare -mode model gates
// on.
func TestModelBench(t *testing.T) {
	setFlags(t, "s298")
	cfg := wbist.Config{LG: 120, Seed: 1, Workers: 1}
	if err := modelBench(cfg); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Schema   string `json:"schema"`
		Circuits []struct {
			Circuit string `json:"circuit"`
			Gates   int    `json:"gates"`
			Models  []struct {
				Model    string `json:"model"`
				Faults   int    `json:"faults"`
				Detected int    `json:"detected"`
				Dense    struct {
					WallNS    int64 `json:"wall_ns"`
					GateEvals int64 `json:"gate_evals"`
					Vectors   int64 `json:"vectors"`
				} `json:"dense"`
				Event struct {
					WallNS    int64 `json:"wall_ns"`
					GateEvals int64 `json:"gate_evals"`
					Vectors   int64 `json:"vectors"`
				} `json:"event"`
				Speedup           float64 `json:"speedup"`
				OverheadVsStuckAt float64 `json:"overhead_vs_stuck_at"`
			} `json:"models"`
		} `json:"circuits"`
	}
	decodeBench(t, *flagModelJSON, &out)
	if out.Schema != "wbist-bench-model/v1" {
		t.Fatalf("schema = %q", out.Schema)
	}
	if len(out.Circuits) != 1 || out.Circuits[0].Circuit != "s298" {
		t.Fatalf("circuits = %+v, want exactly s298", out.Circuits)
	}
	cb := out.Circuits[0]
	if len(cb.Models) != 3 {
		t.Fatalf("models = %+v, want stuck-at, transition, bridge", cb.Models)
	}
	for i, name := range []string{"stuck-at", "transition", "bridge"} {
		m := cb.Models[i]
		if m.Model != name {
			t.Fatalf("model %d = %q, want %q", i, m.Model, name)
		}
		if m.Faults <= 0 || m.Detected <= 0 || m.Detected > m.Faults {
			t.Fatalf("%s: implausible fault counts: %+v", name, m)
		}
		if m.Dense.WallNS <= 0 || m.Event.WallNS <= 0 || m.Dense.GateEvals <= 0 {
			t.Fatalf("%s: implausible timings: %+v", name, m)
		}
		// The applied-vector counter is kernel-invariant per model: both
		// kernels stop each group at its last detection the same way.
		if m.Dense.Vectors != m.Event.Vectors {
			t.Fatalf("%s: dense vectors %d != event vectors %d", name, m.Dense.Vectors, m.Event.Vectors)
		}
		if m.Speedup <= 0 {
			t.Fatalf("%s: speedup = %v", name, m.Speedup)
		}
	}
	// The overhead column is anchored at the stuck-at row.
	if cb.Models[0].OverheadVsStuckAt != 1 {
		t.Fatalf("stuck-at overhead = %v, want 1", cb.Models[0].OverheadVsStuckAt)
	}
	for _, m := range cb.Models[1:] {
		if m.OverheadVsStuckAt <= 0 {
			t.Fatalf("%s: overhead = %v", m.Model, m.OverheadVsStuckAt)
		}
	}
}

// TestModelCoverage runs the models section (full pipeline per fault model
// on s298 and s344) with a short generator window; it must render without
// error — the per-model numbers themselves are pinned by the golden tests.
func TestModelCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six full pipelines")
	}
	setFlags(t, "")
	if err := modelCoverage(wbist.Config{LG: 120, Seed: 1, Workers: 2}); err != nil {
		t.Fatal(err)
	}
}
