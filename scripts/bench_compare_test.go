package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const pipelineBase = `{
  "schema": "wbist-bench-pipeline/v1",
  "circuits": [
    {"circuit": "s298", "wall_ns": 1000000000,
     "phases": [{"span": "pipeline/atpg", "wall_ns": 800000000}],
     "counters": {"fsim.gate_evals": 900, "fsim.gates_skipped": 100,
                  "fsim.vectors": 50, "fsim.group_passes": 4,
                  "fsim.faults_dropped": 30, "core.candidates_scored": 7,
                  "podem.backtracks": 2, "fsim.events_scheduled": 60}},
    {"circuit": "s344", "wall_ns": 5, "counters": {}}
  ]
}`

func TestComparePipelineExactAndAdvisory(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", pipelineBase)
	// Fresh: same effective evals with a different kernel split, one exact
	// counter diverged, wall 3x slower.
	fresh := writeFile(t, dir, "fresh.json", `{
  "schema": "wbist-bench-pipeline/v1",
  "circuits": [
    {"circuit": "s298", "wall_ns": 3000000000,
     "phases": [{"span": "pipeline/atpg", "wall_ns": 800000000}],
     "counters": {"fsim.gate_evals": 1000, "fsim.gates_skipped": 0,
                  "fsim.vectors": 51, "fsim.group_passes": 4,
                  "fsim.faults_dropped": 30, "core.candidates_scored": 7,
                  "podem.backtracks": 2}},
    {"circuit": "s1488", "wall_ns": 5, "counters": {}}
  ]
}`)
	rows, err := comparePipeline(base, fresh, 0.5)
	if err != nil {
		t.Fatalf("comparePipeline: %v", err)
	}
	byMetric := map[string]row{}
	for _, r := range rows {
		byMetric[r.circuit+"/"+r.metric] = r
	}
	if r := byMetric["s298/effective_evals"]; r.status != "ok" || r.base != "1000" || r.fresh != "1000" {
		t.Errorf("effective_evals row = %+v", r)
	}
	if r := byMetric["s298/fsim.vectors"]; r.status != "FAIL" {
		t.Errorf("diverged vectors row = %+v", r)
	}
	if r := byMetric["s298/wall"]; !strings.HasPrefix(r.status, "slow") {
		t.Errorf("3x wall row = %+v", r)
	}
	if r := byMetric["s298/wall pipeline/atpg"]; r.status != "ok" {
		t.Errorf("matched phase wall row = %+v", r)
	}
	if r := byMetric["s298/fsim.events_scheduled"]; r.status != "info" {
		t.Errorf("kernel-internal row gated: %+v", r)
	}
	if r := byMetric["s1488/(not in baseline)"]; r.status != "info" {
		t.Errorf("unknown circuit row = %+v", r)
	}
	var buf bytes.Buffer
	if failed := render(&buf, base, fresh, rows); failed != 1 {
		t.Errorf("render counted %d failures, want 1:\n%s", failed, buf.String())
	}
	if !strings.Contains(buf.String(), "! s298") {
		t.Errorf("render output lacks failure marker:\n%s", buf.String())
	}
}

func TestComparePipelineNoOverlap(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", pipelineBase)
	fresh := writeFile(t, dir, "fresh.json",
		`{"schema": "wbist-bench-pipeline/v1", "circuits": [{"circuit": "zz", "counters": {}}]}`)
	if _, err := comparePipeline(base, fresh, 0.5); err == nil {
		t.Error("no-overlap compare did not error")
	}
}

func TestComparePipelineSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", `{"schema": "wbist-bench-kernel/v1", "circuits": []}`)
	if _, err := comparePipeline(base, base, 0.5); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("schema mismatch err = %v", err)
	}
	if _, err := comparePipeline(filepath.Join(dir, "missing.json"), base, 0.5); err == nil {
		t.Error("missing file did not error")
	}
	bad := writeFile(t, dir, "bad.json", "{oops")
	if _, err := comparePipeline(bad, bad, 0.5); err == nil {
		t.Error("bad JSON did not error")
	}
}

const kernelBase = `{
  "schema": "wbist-bench-kernel/v1",
  "circuits": [
    {"circuit": "s27", "faults": 26, "vectors": 2000,
     "dense": {"wall_ns": 300000, "gate_evals": 20000},
     "event": {"wall_ns": 250000, "gate_evals": 5000, "gates_skipped": 15000,
               "events_scheduled": 5000, "cone_hits": 5000}}
  ]
}`

func TestCompareKernel(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", kernelBase)
	// Same effective evals, different split; event wall 10x faster.
	fresh := writeFile(t, dir, "fresh.json", `{
  "schema": "wbist-bench-kernel/v1",
  "circuits": [
    {"circuit": "s27", "faults": 26, "vectors": 2000,
     "dense": {"wall_ns": 310000, "gate_evals": 20000},
     "event": {"wall_ns": 25000, "gate_evals": 6000, "gates_skipped": 14000,
               "events_scheduled": 6000, "cone_hits": 5500}}
  ]
}`)
	rows, err := compareKernel(base, fresh, 0.5)
	if err != nil {
		t.Fatalf("compareKernel: %v", err)
	}
	byMetric := map[string]row{}
	for _, r := range rows {
		byMetric[r.metric] = r
	}
	for _, m := range []string{"vectors", "faults", "dense.gate_evals", "event.effective_evals"} {
		if r := byMetric[m]; r.status != "ok" {
			t.Errorf("%s row = %+v", m, r)
		}
	}
	if r := byMetric["event.gate_evals"]; r.status != "info" {
		t.Errorf("event split row gated: %+v", r)
	}
	if r := byMetric["event.wall"]; !strings.HasPrefix(r.status, "fast") {
		t.Errorf("10x-faster wall row = %+v", r)
	}
	if r := byMetric["dense.wall"]; r.status != "ok" {
		t.Errorf("in-tolerance wall row = %+v", r)
	}
	var buf bytes.Buffer
	if failed := render(&buf, base, fresh, rows); failed != 0 {
		t.Errorf("render counted %d failures, want 0:\n%s", failed, buf.String())
	}
}

func TestAppendMarkdown(t *testing.T) {
	dir := t.TempDir()
	sum := filepath.Join(dir, "summary.md")
	rows := []row{
		{"s298", "fsim.vectors", "50", "51", "FAIL"},
		{"s298", "wall", "1000.0ms", "3000.0ms", "slow"},
		{"s298", "effective_evals", "1000", "1000", "ok"},
		{"s298", "fsim.cone_hits", "0", "7", "info"},
	}
	if err := appendMarkdown(sum, "pipeline", "BENCH_pipeline.json", rows); err != nil {
		t.Fatalf("appendMarkdown: %v", err)
	}
	// Appends, never truncates.
	if err := appendMarkdown(sum, "pipeline", "BENCH_pipeline.json", rows[2:]); err != nil {
		t.Fatalf("appendMarkdown (second): %v", err)
	}
	b, err := os.ReadFile(sum)
	if err != nil {
		t.Fatal(err)
	}
	out := string(b)
	if strings.Count(out, "### bench-check (pipeline)") != 2 {
		t.Errorf("summary does not append:\n%s", out)
	}
	if !strings.Contains(out, "| s298 | fsim.vectors | 50 | 51 | FAIL |") ||
		!strings.Contains(out, "| s298 | wall |") {
		t.Errorf("flagged rows missing from table:\n%s", out)
	}
	if strings.Contains(out, "effective_evals") || strings.Contains(out, "cone_hits") {
		t.Errorf("ok/info rows leaked into the table:\n%s", out)
	}
	if !strings.Contains(out, "2 row(s) ok, 2 flagged.") {
		t.Errorf("summary counts wrong:\n%s", out)
	}
}

func TestWallStatus(t *testing.T) {
	for _, tc := range []struct {
		base, fresh int64
		want        string
	}{
		{1000, 1000, "ok"},
		{1000, 1499, "ok"},
		{1000, 1501, "slow (1.50x)"},
		{1000, 600, "fast (0.60x)"},
		{0, 5, "info"},  // zero baseline: no ratio, advisory row
		{-1, 5, "info"}, // negative (corrupt) baseline: likewise
	} {
		rows := wall(nil, "c", "wall", tc.base, tc.fresh, 0.5)
		if got := rows[0].status; got != tc.want {
			t.Errorf("wall(%d, %d) = %q, want %q", tc.base, tc.fresh, got, tc.want)
		}
	}
	// The zero-baseline row renders "-" rather than a fake "0.0ms".
	rows := wall(nil, "c", "wall", 0, 5e6, 0.5)
	if rows[0].base != "-" || rows[0].fresh != "5.0ms" {
		t.Errorf("zero-baseline row = %+v", rows[0])
	}
}

const slabBase = `{
  "schema": "wbist-bench-slab/v1",
  "circuits": [
    {"circuit": "s298", "faults": 596, "groups": 5, "vectors": 3000,
     "dense": {"wall_ns": 900000, "gate_evals": 40000},
     "event": {"wall_ns": 800000, "gate_evals": 15000},
     "slab": {"wall_ns": 500000, "gate_evals": 40000, "allocs_per_run": 7,
              "slab_passes": 12, "lanes_idle": 3}}
  ]
}`

func TestCompareSlab(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", slabBase)
	// Fresh run on a slower machine: identical counters, slab wall 2x slower,
	// plus a circuit the baseline has never seen.
	fresh := writeFile(t, dir, "fresh.json", `{
  "schema": "wbist-bench-slab/v1",
  "circuits": [
    {"circuit": "s298", "faults": 596, "groups": 5, "vectors": 3000,
     "dense": {"wall_ns": 950000, "gate_evals": 40000},
     "event": {"wall_ns": 820000, "gate_evals": 15000},
     "slab": {"wall_ns": 1000000, "gate_evals": 40000, "allocs_per_run": 7,
              "slab_passes": 12, "lanes_idle": 3}},
    {"circuit": "zz9", "faults": 1, "groups": 1, "vectors": 1,
     "dense": {"gate_evals": 10}, "slab": {"gate_evals": 10}}
  ]
}`)
	rows, err := compareSlab(base, fresh, 0.5)
	if err != nil {
		t.Fatalf("compareSlab: %v", err)
	}
	byMetric := map[string]row{}
	for _, r := range rows {
		byMetric[r.circuit+"/"+r.metric] = r
	}
	for _, m := range []string{"slab.gate_evals (vs dense)", "vectors", "faults",
		"groups", "dense.gate_evals"} {
		if r := byMetric["s298/"+m]; r.status != "ok" {
			t.Errorf("%s row = %+v", m, r)
		}
	}
	if r := byMetric["s298/slab.allocs_per_run"]; r.status != "info" {
		t.Errorf("alloc row gated: %+v", r)
	}
	if r := byMetric["s298/slab.wall"]; !strings.HasPrefix(r.status, "slow") {
		t.Errorf("2x slab wall row = %+v", r)
	}
	// The dense-equivalence invariant is gated on the fresh file alone, even
	// for circuits absent from the baseline.
	if r := byMetric["zz9/slab.gate_evals (vs dense)"]; r.status != "ok" {
		t.Errorf("fresh-only invariant row = %+v", r)
	}
	if r := byMetric["zz9/(not in baseline)"]; r.status != "info" {
		t.Errorf("unknown circuit row = %+v", r)
	}

	// A slab/dense eval mismatch in the fresh file must FAIL with no
	// baseline involvement.
	broken := writeFile(t, dir, "broken.json", `{
  "schema": "wbist-bench-slab/v1",
  "circuits": [
    {"circuit": "s298", "faults": 596, "groups": 5, "vectors": 3000,
     "dense": {"gate_evals": 40000}, "event": {"gate_evals": 15000},
     "slab": {"gate_evals": 39999, "slab_passes": 12}}
  ]
}`)
	rows, err = compareSlab(base, broken, 0.5)
	if err != nil {
		t.Fatalf("compareSlab(broken): %v", err)
	}
	var buf bytes.Buffer
	if failed := render(&buf, base, broken, rows); failed == 0 {
		t.Errorf("diverged slab evals not counted as failure:\n%s", buf.String())
	}
	if _, err := compareSlab(base, writeFile(t, dir, "none.json",
		`{"schema": "wbist-bench-slab/v1", "circuits": [{"circuit": "zz", "dense": {}, "slab": {}}]}`), 0.5); err == nil {
		t.Error("no-overlap compare did not error")
	}
	if _, err := compareSlab(writeFile(t, dir, "wrong.json",
		`{"schema": "wbist-bench-kernel/v1", "circuits": []}`), fresh, 0.5); err == nil {
		t.Error("schema mismatch did not error")
	}
}

const modelBase = `{
  "schema": "wbist-bench-model/v1",
  "circuits": [
    {"circuit": "s298", "gates": 119, "models": [
      {"model": "stuck-at", "faults": 496, "detected": 370,
       "dense": {"wall_ns": 1600000, "gate_evals": 114240, "vectors": 960},
       "event": {"wall_ns": 1400000, "gate_evals": 114240, "vectors": 960}},
      {"model": "transition", "faults": 272, "detected": 197,
       "dense": {"wall_ns": 1400000, "gate_evals": 71400, "vectors": 600},
       "event": {"wall_ns": 1300000, "gate_evals": 71400, "vectors": 600}}
    ]}
  ]
}`

func TestCompareModel(t *testing.T) {
	dir := t.TempDir()
	base := writeFile(t, dir, "base.json", modelBase)
	// Healthy fresh run: identical deterministic counters, transition dense
	// wall 2x slower, a model and a circuit the baseline has never seen.
	fresh := writeFile(t, dir, "fresh.json", `{
  "schema": "wbist-bench-model/v1",
  "circuits": [
    {"circuit": "s298", "gates": 119, "models": [
      {"model": "stuck-at", "faults": 496, "detected": 370,
       "dense": {"wall_ns": 1700000, "gate_evals": 114240, "vectors": 960},
       "event": {"wall_ns": 1500000, "gate_evals": 110000, "vectors": 960}},
      {"model": "transition", "faults": 272, "detected": 197,
       "dense": {"wall_ns": 2900000, "gate_evals": 71400, "vectors": 600},
       "event": {"wall_ns": 1350000, "gate_evals": 71400, "vectors": 600}},
      {"model": "bridge", "faults": 330, "detected": 281,
       "dense": {"gate_evals": 75803, "vectors": 637},
       "event": {"gate_evals": 75803, "vectors": 637}}
    ]},
    {"circuit": "zz9", "models": [
      {"model": "stuck-at", "faults": 2, "detected": 1,
       "dense": {"gate_evals": 10, "vectors": 4},
       "event": {"gate_evals": 10, "vectors": 4}}
    ]}
  ]
}`)
	rows, err := compareModel(base, fresh, 0.5)
	if err != nil {
		t.Fatalf("compareModel: %v", err)
	}
	byMetric := map[string]row{}
	for _, r := range rows {
		byMetric[r.circuit+"/"+r.metric] = r
	}
	for _, m := range []string{"stuck-at.vectors (event vs dense)",
		"stuck-at.faults", "stuck-at.detected", "stuck-at.dense.gate_evals",
		"stuck-at.vectors", "transition.faults", "transition.detected"} {
		if r := byMetric["s298/"+m]; r.status != "ok" {
			t.Errorf("%s row = %+v", m, r)
		}
	}
	// The event kernel's raw eval split may drift (warm-start state): info.
	if r := byMetric["s298/stuck-at.event.gate_evals"]; r.status != "info" {
		t.Errorf("event split row gated: %+v", r)
	}
	if r := byMetric["s298/transition.dense.wall"]; !strings.HasPrefix(r.status, "slow") {
		t.Errorf("2x wall row = %+v", r)
	}
	if r := byMetric["s298/bridge (not in baseline)"]; r.status != "info" {
		t.Errorf("unknown model row = %+v", r)
	}
	// The cross-kernel invariant is gated on the fresh file alone, even for
	// circuits absent from the baseline.
	if r := byMetric["zz9/stuck-at.vectors (event vs dense)"]; r.status != "ok" {
		t.Errorf("fresh-only invariant row = %+v", r)
	}
	if r := byMetric["zz9/(not in baseline)"]; r.status != "info" {
		t.Errorf("unknown circuit row = %+v", r)
	}
	var buf bytes.Buffer
	if failed := render(&buf, base, fresh, rows); failed != 0 {
		t.Errorf("render counted %d failures, want 0:\n%s", failed, buf.String())
	}

	// A dense/event vector mismatch in the fresh file alone must FAIL:
	// kernels are bit-identical per model, whatever the baseline says.
	broken := writeFile(t, dir, "broken.json", `{
  "schema": "wbist-bench-model/v1",
  "circuits": [
    {"circuit": "s298", "models": [
      {"model": "stuck-at", "faults": 496, "detected": 370,
       "dense": {"gate_evals": 114240, "vectors": 960},
       "event": {"gate_evals": 114240, "vectors": 959}}
    ]}
  ]
}`)
	rows, err = compareModel(base, broken, 0.5)
	if err != nil {
		t.Fatalf("compareModel(broken): %v", err)
	}
	buf.Reset()
	if failed := render(&buf, base, broken, rows); failed == 0 {
		t.Errorf("cross-kernel vector drift not counted as failure:\n%s", buf.String())
	}

	if _, err := compareModel(base, writeFile(t, dir, "none.json",
		`{"schema": "wbist-bench-model/v1", "circuits": [{"circuit": "zz", "models": []}]}`), 0.5); err == nil {
		t.Error("no-overlap compare did not error")
	}
	if _, err := compareModel(writeFile(t, dir, "wrong.json",
		`{"schema": "wbist-bench-slab/v1", "circuits": []}`), fresh, 0.5); err == nil {
		t.Error("schema mismatch did not error")
	}
}
