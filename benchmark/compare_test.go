package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func TestVerdict(t *testing.T) {
	tight := []float64{10.0, 10.1, 9.9, 10.2, 9.8, 10.05, 9.95, 10.15, 9.85, 10.0}
	wide := []float64{10, 14, 7, 12, 9, 13, 8, 11, 6, 15}
	for _, c := range []struct {
		name       string
		a, b       []float64
		won, pairs int
		higher     bool
		bound      float64
		want       string
	}{
		{"same runs", tight, tight, 0, 10, false, 0.1, "unchanged"},
		{"within the bound", tight, scaled(tight, 1.05), 0, 10, false, 0.1, "unchanged"},
		{"beyond the bound", tight, scaled(tight, 1.3), 0, 10, false, 0.1, "worse"},
		{"faster, every pair won", tight, scaled(tight, 0.8), 10, 10, false, 0.1, "better"},
		{"faster, nine of ten pairs won", tight, scaled(tight, 0.8), 9, 10, false, 0.1, "better"},
		{"faster, eight of ten pairs won", tight, scaled(tight, 0.8), 8, 10, false, 0.1, "unchanged"},
		{"faster by less than A's spread", tight, scaled(tight, 0.99), 10, 10, false, 0.1, "unchanged"},
		{"spread wider than the bound", wide, scaled(wide, 1.02), 5, 10, false, 0.1, "unresolved"},
		{"wide, but every run better", wide, scaled(wide, 0.3), 10, 10, false, 0.1, "better"},
		{"wide, every run worse", wide, scaled(wide, 3), 0, 10, false, 0.1, "worse"},
		// B's runs overlap A's, but its median is twice A's: a wide spread
		// must not hide that.
		{"wide, median twice as slow, runs overlap", wide, scaled(wide, 2), 2, 10, false, 0.1, "worse"},
		{"higher is better: lower is worse", tight, scaled(tight, 0.7), 0, 10, true, 0.1, "worse"},
		{"higher is better: higher wins", tight, scaled(tight, 1.3), 10, 10, true, 0.1, "better"},
		{"no pairs, every run better", tight, scaled(tight, 0.5), 0, 0, false, 0.1, "better"},
	} {
		if got := verdict(c.a, c.b, c.won, c.pairs, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompare compares two directories of run reports against a
// BENCHMARK.json: the same runs are unchanged, a slower set is worse, and
// the per-layer metrics get no verdict.
func TestCompare(t *testing.T) {
	bound := 0.1
	spec := benchmarkFile{
		Workloads: []namedWhy{{Name: "w"}},
		EndToEnd:  []benchMetric{{Name: "wall_s", Unit: "s", Better: "lower", Bound: &bound}},
		PerLayer:  []benchMetric{{Name: "x.evals", Unit: "count", Better: "lower"}},
	}
	dir := t.TempDir()
	specPath := filepath.Join(dir, "BENCHMARK.json")
	if err := writeJSON(specPath, spec); err != nil {
		t.Fatal(err)
	}
	write := func(sub string, wall float64) {
		for seed := uint64(1); seed <= 10; seed++ {
			for _, trace := range []bool{false, true} {
				rep := report{Workload: "w", Seed: seed, Trace: trace, Metrics: map[string]metricValue{
					"wall_s":  {wall * (1 + float64(seed)/100), "s"},
					"x.evals": {1000, "count"},
				}}
				name := filepath.Join(dir, sub, fmt.Sprintf("w-seed%d-trace%d.json", seed, btoi(trace)))
				if err := writeJSON(name, rep); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	write("a", 10)
	write("b", 10)
	write("slow", 13)

	var out strings.Builder
	if err := compare(&out, specPath, filepath.Join(dir, "a"), filepath.Join(dir, "b")); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"wall_s", "unchanged", "x.evals", "no bound"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare a b: output lacks %q:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := compare(&out, specPath, filepath.Join(dir, "a"), filepath.Join(dir, "slow")); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "worse") || !strings.Contains(out.String(), "0/10") {
		t.Errorf("compare a slow: want worse with 0/10 pairs won:\n%s", out.String())
	}
	if err := compare(&out, specPath, filepath.Join(dir, "a"), t.TempDir()); err == nil {
		t.Error("compare against an empty directory: want an error")
	}
}
