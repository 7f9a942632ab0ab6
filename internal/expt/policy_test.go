package expt

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/bist"
	"repro/internal/core"
	"repro/internal/fsim"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// spanCounts returns how many spans of each path a recorder has recorded.
func spanCounts(rec *telemetry.Recorder) map[string]int {
	m := map[string]int{}
	for _, p := range rec.Phases() {
		m[p.Span] = p.Count
	}
	return m
}

// TestRunCarriesNoPolicy: two RunCircuit calls that differ only in Workers,
// context and recorder share one *Run, which keeps none of them. A stage run
// on that Run afterwards works for the caller that asked for it: the second
// caller's obs experiment and BIST session (the body of
// wbist.RunBISTSession) record their root spans into its recorder, and the
// first caller's recorder gains nothing after its pipeline.
func TestRunCarriesNoPolicy(t *testing.T) {
	ClearCache()
	r1, r2 := telemetry.New(), telemetry.New()
	a, err := RunCircuit("s298", Config{Seed: 1, Workers: 1, Telemetry: r1, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := Config{Seed: 1, Workers: 4, Telemetry: r2}
	b, err := RunCircuit("s298", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("runs differing only in policy do not share one *Run")
	}
	if want := CanonicalConfig("s298", Config{Seed: 1}); b.Config != want {
		t.Fatalf("Run.Config = %+v, want the identity fields alone: %+v", b.Config, want)
	}
	first := spanCounts(r1)
	if first["pipeline"] != 1 {
		t.Fatalf("first caller's recorder holds %v, want one pipeline", first)
	}
	if got := spanCounts(r2); len(got) != 0 {
		t.Fatalf("cache hit recorded %v", got)
	}

	ObsExperiment(b, cfg2)
	if _, err := bist.RunWeightedSession(b.Core, b.Compacted, 16, cfg2.Workers, cfg2.Telemetry.Root()); err != nil {
		t.Fatal(err)
	}
	if got, want := spanCounts(r2), map[string]int{"obs": 1, "bist-session": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("second caller's recorder holds %v, want %v", got, want)
	}
	if got := spanCounts(r1); !reflect.DeepEqual(got, first) {
		t.Errorf("first caller's recorder went from %v to %v after its pipeline", first, got)
	}
}

// TestPostRunStagesWorkersInvariant: the stages that run on a finished Run
// take Workers from their caller, and what they return is the same at any
// worker count.
func TestPostRunStagesWorkersInvariant(t *testing.T) {
	r, err := RunCircuit("s298", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type stages struct {
		compacted []core.Assignment
		detSets   []fsim.Bitset
		obs       *obs.Result
	}
	var want *stages
	for _, workers := range []int{1, 4} {
		got := &stages{
			core.ReverseOrderCompact(r.Core, workers),
			core.DetectionSets(r.Core, workers),
			obs.Experiment(r.Core, workers, nil),
		}
		if want == nil {
			if !reflect.DeepEqual(got.compacted, r.Compacted) {
				t.Fatal("Workers=1: reverse-order pruning differs from the run's")
			}
			want = got
			continue
		}
		if !reflect.DeepEqual(got.compacted, want.compacted) {
			t.Errorf("Workers=%d: ReverseOrderCompact differs from Workers=1", workers)
		}
		if !reflect.DeepEqual(got.detSets, want.detSets) {
			t.Errorf("Workers=%d: DetectionSets differ from Workers=1", workers)
		}
		if !reflect.DeepEqual(got.obs, want.obs) {
			t.Errorf("Workers=%d: obs.Experiment differs from Workers=1", workers)
		}
	}
}
