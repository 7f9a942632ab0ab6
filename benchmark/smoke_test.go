package main

import (
	"errors"
	"path/filepath"
	"testing"
)

// TestShortOf checks that a run which pooled too few samples of a class for
// its tail percentile is caught.
func TestShortOf(t *testing.T) {
	w := &workload{minSamples: map[string]int{"hit": 3, "cold": 1}}
	rounds := []*roundResult{{ops: []opResult{{class: "hit"}, {class: "cold"}, {class: "hit", err: errTest}}}}
	if got := shortOf(w, rounds); got == "" {
		t.Error("1 good hit of 3 wanted: not reported short")
	}
	rounds = append(rounds, &roundResult{ops: []opResult{{class: "hit"}, {class: "hit"}}})
	if got := shortOf(w, rounds); got != "" {
		t.Errorf("3 good hits and a cold job: reported %q", got)
	}
}

var errTest = errors.New("test")

// TestSmoke runs every workload on tiny inputs, untraced and traced, and
// checks that the outputs are correct and that each run prints exactly the
// metrics BENCHMARK.json lists, with their units, so that the file and the
// code cannot drift apart.
func TestSmoke(t *testing.T) {
	var spec benchmarkFile
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, -seconds defaults to %d", spec.RunSeconds, defaultSeconds)
	}
	full, tiny := benchmarkWorkloads(), tinyWorkloads()
	if len(spec.Workloads) != len(full) || len(tiny) != len(full) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d, the tiny set %d", len(spec.Workloads), len(full), len(tiny))
	}
	for i, w := range spec.Workloads {
		if full[i].name != w.Name || tiny[i].name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q, tiny set %q", i, w.Name, full[i].name, tiny[i].name)
		}
	}
	// serve-mix reports p99 of its hits and p75 of its cold jobs.
	serveMix := findWorkload(full, "serve-mix")
	if p := tailPercentile(serveMix.minSamples["hit"]); p < 99 {
		t.Errorf("serve-mix pools %d hits: enough for p%v, not p99", serveMix.minSamples["hit"], p)
	}
	if p := tailPercentile(serveMix.minSamples["cold"]); p < 75 {
		t.Errorf("serve-mix pools %d cold jobs: enough for p%v, not p75", serveMix.minSamples["cold"], p)
	}

	for _, w := range tiny {
		for _, trace := range []bool{false, true} {
			rep, tr, err := measure(w, runOptions{seed: 1, seconds: 0.2, trace: trace, dir: t.TempDir()})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d ops failed: %v", w.name, trace, rep.Failed, rep.Attempted, rep.Errors)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not printed", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s in %s, BENCHMARK.json says %s", w.name, trace, m.Name, got.Unit, m.Unit)
				case !trace && got.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w.name, m.Name, got.Value)
				}
			}
			if trace && w.traced && (tr == nil || len(tr.sink.events) == 0 || rep.Detail["rounds.traced"] == 0) {
				t.Errorf("%s: a traced run kept no spans", w.name)
			}
		}
	}
}
