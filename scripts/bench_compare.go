// Command bench_compare diffs a freshly measured benchmark file against a
// committed BENCH_*.json baseline and gates on the deterministic work
// counters. It is the teeth behind `make bench-check` and the advisory
// bench-regression CI job.
//
// Four baseline schemas are supported, selected by -mode:
//
//	pipeline  wbist-bench-pipeline/v1 (BENCH_pipeline.json, BENCH_parallel.json)
//	kernel    wbist-bench-kernel/v1   (BENCH_event.json)
//	slab      wbist-bench-slab/v1     (BENCH_slab.json)
//	model     wbist-bench-model/v1    (BENCH_model.json)
//
// Only circuits present in both files are compared, so a cheap smoke run
// (-circuits s298) can be checked against the full committed trajectory.
//
// Gating policy: the pipeline is deterministic for a fixed seed, so the
// work counters must match the baseline EXACTLY —
//
//   - effective gate evaluations (fsim.gate_evals + fsim.gates_skipped),
//     which is kernel-invariant by construction: the event kernel counts
//     every avoided evaluation as skipped;
//   - fsim.vectors, fsim.group_passes, fsim.faults_dropped,
//     core.candidates_scored, podem.backtracks, which are identical for any
//     worker count and either kernel (outcomes are bit-identical).
//
// fsim.cone_hits and fsim.events_scheduled are kernel internals and only
// reported. Wall-clock is never gated — baselines are recorded on other
// machines — but ratios outside -wall-tol are listed so a human can react.
// When $GITHUB_STEP_SUMMARY is set (or -summary given) a markdown table of
// every comparison is appended there.
//
// Exit status: 1 on any exact-counter mismatch (or I/O/schema error), 0
// otherwise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

type phaseStats struct {
	Span     string           `json:"span"`
	WallNS   int64            `json:"wall_ns"`
	Counters map[string]int64 `json:"counters"`
}

type pipelineCircuit struct {
	Circuit  string           `json:"circuit"`
	WallNS   int64            `json:"wall_ns"`
	Phases   []phaseStats     `json:"phases"`
	Counters map[string]int64 `json:"counters"`
}

type kernelStats struct {
	WallNS          int64 `json:"wall_ns"`
	GateEvals       int64 `json:"gate_evals"`
	EventsScheduled int64 `json:"events_scheduled"`
	GatesSkipped    int64 `json:"gates_skipped"`
	ConeHits        int64 `json:"cone_hits"`
}

type kernelCircuit struct {
	Circuit string      `json:"circuit"`
	Faults  int         `json:"faults"`
	Vectors int64       `json:"vectors"`
	Dense   kernelStats `json:"dense"`
	Event   kernelStats `json:"event"`
}

type slabKernelStats struct {
	WallNS       int64 `json:"wall_ns"`
	GateEvals    int64 `json:"gate_evals"`
	AllocsPerRun int64 `json:"allocs_per_run"`
}

type slabCircuit struct {
	Circuit string          `json:"circuit"`
	Faults  int             `json:"faults"`
	Groups  int             `json:"groups"`
	Vectors int64           `json:"vectors"`
	Dense   slabKernelStats `json:"dense"`
	Event   slabKernelStats `json:"event"`
	Slab    struct {
		slabKernelStats
		SlabPasses int64 `json:"slab_passes"`
		LanesIdle  int64 `json:"lanes_idle"`
	} `json:"slab"`
}

type modelKernelStats struct {
	WallNS    int64 `json:"wall_ns"`
	GateEvals int64 `json:"gate_evals"`
	Vectors   int64 `json:"vectors"`
}

type modelStats struct {
	Model    string           `json:"model"`
	Faults   int              `json:"faults"`
	Detected int              `json:"detected"`
	Dense    modelKernelStats `json:"dense"`
	Event    modelKernelStats `json:"event"`
}

type modelCircuit struct {
	Circuit string       `json:"circuit"`
	Models  []modelStats `json:"models"`
}

type benchFile struct {
	Schema   string          `json:"schema"`
	Circuits json.RawMessage `json:"circuits"`
}

// exactCounters are the gated per-circuit totals (beyond effective evals).
var exactCounters = []string{
	"fsim.vectors",
	"fsim.group_passes",
	"fsim.faults_dropped",
	"core.candidates_scored",
	"podem.backtracks",
}

// row is one comparison line, rendered to stdout and the markdown summary.
type row struct {
	circuit string
	metric  string
	base    string
	fresh   string
	status  string // "ok", "FAIL", "info", "slow (Nx)", "fast (Nx)"
}

func main() {
	mode := flag.String("mode", "pipeline", "baseline schema: pipeline, kernel, slab or model")
	baseline := flag.String("baseline", "", "committed BENCH_*.json baseline (required)")
	fresh := flag.String("fresh", "", "freshly measured benchmark file (required)")
	wallTol := flag.Float64("wall-tol", 0.5, "advisory wall-clock tolerance (fractional, e.g. 0.5 = ±50%)")
	summary := flag.String("summary", os.Getenv("GITHUB_STEP_SUMMARY"), "append a markdown summary table to this file (default $GITHUB_STEP_SUMMARY)")
	flag.Parse()
	if *baseline == "" || *fresh == "" {
		fmt.Fprintln(os.Stderr, "bench_compare: -baseline and -fresh are required")
		os.Exit(1)
	}

	var rows []row
	var err error
	switch *mode {
	case "pipeline":
		rows, err = comparePipeline(*baseline, *fresh, *wallTol)
	case "kernel":
		rows, err = compareKernel(*baseline, *fresh, *wallTol)
	case "slab":
		rows, err = compareSlab(*baseline, *fresh, *wallTol)
	case "model":
		rows, err = compareModel(*baseline, *fresh, *wallTol)
	default:
		err = fmt.Errorf("unknown -mode %q (want pipeline, kernel, slab or model)", *mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench_compare: %v\n", err)
		os.Exit(1)
	}

	failed := render(os.Stdout, *baseline, *fresh, rows)
	if *summary != "" {
		if err := appendMarkdown(*summary, *mode, *baseline, rows); err != nil {
			fmt.Fprintf(os.Stderr, "bench_compare: summary: %v\n", err)
		}
	}
	if failed > 0 {
		fmt.Printf("bench_compare: FAIL — %d deterministic counter(s) diverged from %s\n", failed, *baseline)
		os.Exit(1)
	}
	fmt.Printf("bench_compare: OK — counters match %s\n", *baseline)
}

func load(path string, circuits any) (string, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		return "", fmt.Errorf("%s: %v", path, err)
	}
	if err := json.Unmarshal(f.Circuits, circuits); err != nil {
		return "", fmt.Errorf("%s: circuits: %v", path, err)
	}
	return f.Schema, nil
}

func wantSchema(path, got, want string) error {
	if got != want {
		return fmt.Errorf("%s: schema %q, want %q", path, got, want)
	}
	return nil
}

// exact emits a gated exact-match row.
func exact(rows []row, circuit, metric string, base, fresh int64) []row {
	st := "ok"
	if base != fresh {
		st = "FAIL"
	}
	return append(rows, row{circuit, metric, fmt.Sprint(base), fmt.Sprint(fresh), st})
}

// info emits a non-gated informational row.
func info(rows []row, circuit, metric string, base, fresh int64) []row {
	return append(rows, row{circuit, metric, fmt.Sprint(base), fmt.Sprint(fresh), "info"})
}

// wall emits an advisory wall-clock row flagged outside ±tol. A zero or
// missing baseline entry carries no timing signal: the ratio would be
// Inf/NaN, so the row is marked "info" with a "-" baseline instead of
// silently passing as "ok".
func wall(rows []row, circuit, metric string, base, fresh int64, tol float64) []row {
	if base <= 0 {
		return append(rows, row{circuit, metric, "-",
			fmt.Sprintf("%.1fms", float64(fresh)/1e6), "info"})
	}
	st := "ok"
	switch r := float64(fresh) / float64(base); {
	case r > 1+tol:
		st = fmt.Sprintf("slow (%.2fx)", r)
	case r < 1/(1+tol):
		st = fmt.Sprintf("fast (%.2fx)", r)
	}
	return append(rows, row{circuit, metric,
		fmt.Sprintf("%.1fms", float64(base)/1e6),
		fmt.Sprintf("%.1fms", float64(fresh)/1e6), st})
}

func comparePipeline(basePath, freshPath string, tol float64) ([]row, error) {
	var base, fresh []pipelineCircuit
	schema, err := load(basePath, &base)
	if err != nil {
		return nil, err
	}
	if err := wantSchema(basePath, schema, "wbist-bench-pipeline/v1"); err != nil {
		return nil, err
	}
	if schema, err = load(freshPath, &fresh); err != nil {
		return nil, err
	}
	if err := wantSchema(freshPath, schema, "wbist-bench-pipeline/v1"); err != nil {
		return nil, err
	}
	byName := map[string]pipelineCircuit{}
	for _, c := range base {
		byName[c.Circuit] = c
	}
	var rows []row
	matched := 0
	for _, f := range fresh {
		b, ok := byName[f.Circuit]
		if !ok {
			rows = append(rows, row{f.Circuit, "(not in baseline)", "-", "-", "info"})
			continue
		}
		matched++
		rows = exact(rows, f.Circuit, "effective_evals",
			b.Counters["fsim.gate_evals"]+b.Counters["fsim.gates_skipped"],
			f.Counters["fsim.gate_evals"]+f.Counters["fsim.gates_skipped"])
		for _, k := range exactCounters {
			rows = exact(rows, f.Circuit, k, b.Counters[k], f.Counters[k])
		}
		rows = info(rows, f.Circuit, "fsim.events_scheduled",
			b.Counters["fsim.events_scheduled"], f.Counters["fsim.events_scheduled"])
		rows = info(rows, f.Circuit, "fsim.cone_hits",
			b.Counters["fsim.cone_hits"], f.Counters["fsim.cone_hits"])
		rows = wall(rows, f.Circuit, "wall", b.WallNS, f.WallNS, tol)
		for _, fp := range f.Phases {
			for _, bp := range b.Phases {
				if bp.Span == fp.Span {
					rows = wall(rows, f.Circuit, "wall "+fp.Span, bp.WallNS, fp.WallNS, tol)
					break
				}
			}
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("no circuits of %s appear in %s", freshPath, basePath)
	}
	return rows, nil
}

func compareKernel(basePath, freshPath string, tol float64) ([]row, error) {
	var base, fresh []kernelCircuit
	schema, err := load(basePath, &base)
	if err != nil {
		return nil, err
	}
	if err := wantSchema(basePath, schema, "wbist-bench-kernel/v1"); err != nil {
		return nil, err
	}
	if schema, err = load(freshPath, &fresh); err != nil {
		return nil, err
	}
	if err := wantSchema(freshPath, schema, "wbist-bench-kernel/v1"); err != nil {
		return nil, err
	}
	byName := map[string]kernelCircuit{}
	for _, c := range base {
		byName[c.Circuit] = c
	}
	var rows []row
	matched := 0
	for _, f := range fresh {
		b, ok := byName[f.Circuit]
		if !ok {
			rows = append(rows, row{f.Circuit, "(not in baseline)", "-", "-", "info"})
			continue
		}
		matched++
		rows = exact(rows, f.Circuit, "vectors", b.Vectors, f.Vectors)
		rows = exact(rows, f.Circuit, "faults", int64(b.Faults), int64(f.Faults))
		rows = exact(rows, f.Circuit, "dense.gate_evals", b.Dense.GateEvals, f.Dense.GateEvals)
		rows = exact(rows, f.Circuit, "event.effective_evals",
			b.Event.GateEvals+b.Event.GatesSkipped, f.Event.GateEvals+f.Event.GatesSkipped)
		rows = info(rows, f.Circuit, "event.gate_evals", b.Event.GateEvals, f.Event.GateEvals)
		rows = info(rows, f.Circuit, "event.events_scheduled", b.Event.EventsScheduled, f.Event.EventsScheduled)
		rows = info(rows, f.Circuit, "event.cone_hits", b.Event.ConeHits, f.Event.ConeHits)
		rows = wall(rows, f.Circuit, "dense.wall", b.Dense.WallNS, f.Dense.WallNS, tol)
		rows = wall(rows, f.Circuit, "event.wall", b.Event.WallNS, f.Event.WallNS, tol)
	}
	if matched == 0 {
		return nil, fmt.Errorf("no circuits of %s appear in %s", freshPath, basePath)
	}
	return rows, nil
}

func compareSlab(basePath, freshPath string, tol float64) ([]row, error) {
	var base, fresh []slabCircuit
	schema, err := load(basePath, &base)
	if err != nil {
		return nil, err
	}
	if err := wantSchema(basePath, schema, "wbist-bench-slab/v1"); err != nil {
		return nil, err
	}
	if schema, err = load(freshPath, &fresh); err != nil {
		return nil, err
	}
	if err := wantSchema(freshPath, schema, "wbist-bench-slab/v1"); err != nil {
		return nil, err
	}
	byName := map[string]slabCircuit{}
	for _, c := range base {
		byName[c.Circuit] = c
	}
	var rows []row
	matched := 0
	for _, f := range fresh {
		// The slab kernel counts dense-equivalent evals (lane-cycles ×
		// gates), so slab.gate_evals must equal dense.gate_evals within one
		// measurement — a deterministic invariant gated on the fresh file
		// alone, before any baseline comparison.
		rows = exact(rows, f.Circuit, "slab.gate_evals (vs dense)",
			f.Dense.GateEvals, f.Slab.GateEvals)
		b, ok := byName[f.Circuit]
		if !ok {
			rows = append(rows, row{f.Circuit, "(not in baseline)", "-", "-", "info"})
			continue
		}
		matched++
		rows = exact(rows, f.Circuit, "vectors", b.Vectors, f.Vectors)
		rows = exact(rows, f.Circuit, "faults", int64(b.Faults), int64(f.Faults))
		rows = exact(rows, f.Circuit, "groups", int64(b.Groups), int64(f.Groups))
		rows = exact(rows, f.Circuit, "dense.gate_evals", b.Dense.GateEvals, f.Dense.GateEvals)
		rows = info(rows, f.Circuit, "slab.slab_passes", b.Slab.SlabPasses, f.Slab.SlabPasses)
		rows = info(rows, f.Circuit, "slab.lanes_idle", b.Slab.LanesIdle, f.Slab.LanesIdle)
		rows = info(rows, f.Circuit, "slab.allocs_per_run", b.Slab.AllocsPerRun, f.Slab.AllocsPerRun)
		rows = wall(rows, f.Circuit, "dense.wall", b.Dense.WallNS, f.Dense.WallNS, tol)
		rows = wall(rows, f.Circuit, "event.wall", b.Event.WallNS, f.Event.WallNS, tol)
		rows = wall(rows, f.Circuit, "slab.wall", b.Slab.WallNS, f.Slab.WallNS, tol)
	}
	if matched == 0 {
		return nil, fmt.Errorf("no circuits of %s appear in %s", freshPath, basePath)
	}
	return rows, nil
}

// compareModel gates the per-fault-model kernel baseline. Each model's fault
// universe, detection count and dense gate-eval total are deterministic for a
// fixed seed, so they must match the baseline exactly; and within the fresh
// measurement alone the dense and event kernels must report the same vector
// count (bit-identical outcomes mean the all-detected early exit fires at the
// same time unit in both). The event kernel's raw gate_evals shift with
// warm-start state, so they are informational; wall-clock is advisory, as
// everywhere.
func compareModel(basePath, freshPath string, tol float64) ([]row, error) {
	var base, fresh []modelCircuit
	schema, err := load(basePath, &base)
	if err != nil {
		return nil, err
	}
	if err := wantSchema(basePath, schema, "wbist-bench-model/v1"); err != nil {
		return nil, err
	}
	if schema, err = load(freshPath, &fresh); err != nil {
		return nil, err
	}
	if err := wantSchema(freshPath, schema, "wbist-bench-model/v1"); err != nil {
		return nil, err
	}
	byName := map[string]modelCircuit{}
	for _, c := range base {
		byName[c.Circuit] = c
	}
	var rows []row
	matched := 0
	for _, f := range fresh {
		// Cross-kernel invariance within the fresh measurement, gated before
		// any baseline comparison.
		for _, m := range f.Models {
			rows = exact(rows, f.Circuit, m.Model+".vectors (event vs dense)",
				m.Dense.Vectors, m.Event.Vectors)
		}
		b, ok := byName[f.Circuit]
		if !ok {
			rows = append(rows, row{f.Circuit, "(not in baseline)", "-", "-", "info"})
			continue
		}
		matched++
		for _, m := range f.Models {
			bm, found := modelStats{}, false
			for _, cand := range b.Models {
				if cand.Model == m.Model {
					bm, found = cand, true
					break
				}
			}
			if !found {
				rows = append(rows, row{f.Circuit, m.Model + " (not in baseline)", "-", "-", "info"})
				continue
			}
			rows = exact(rows, f.Circuit, m.Model+".faults", int64(bm.Faults), int64(m.Faults))
			rows = exact(rows, f.Circuit, m.Model+".detected", int64(bm.Detected), int64(m.Detected))
			rows = exact(rows, f.Circuit, m.Model+".dense.gate_evals", bm.Dense.GateEvals, m.Dense.GateEvals)
			rows = exact(rows, f.Circuit, m.Model+".vectors", bm.Dense.Vectors, m.Dense.Vectors)
			rows = info(rows, f.Circuit, m.Model+".event.gate_evals", bm.Event.GateEvals, m.Event.GateEvals)
			rows = wall(rows, f.Circuit, m.Model+".dense.wall", bm.Dense.WallNS, m.Dense.WallNS, tol)
			rows = wall(rows, f.Circuit, m.Model+".event.wall", bm.Event.WallNS, m.Event.WallNS, tol)
		}
	}
	if matched == 0 {
		return nil, fmt.Errorf("no circuits of %s appear in %s", freshPath, basePath)
	}
	return rows, nil
}

// render prints the comparison table and returns the number of FAIL rows.
func render(w io.Writer, basePath, freshPath string, rows []row) int {
	fmt.Fprintf(w, "bench_compare: %s vs fresh %s\n", basePath, freshPath)
	failed := 0
	for _, r := range rows {
		marker := " "
		switch {
		case r.status == "FAIL":
			failed++
			marker = "!"
		case strings.HasPrefix(r.status, "slow"), strings.HasPrefix(r.status, "fast"):
			marker = "~"
		}
		fmt.Fprintf(w, "%s %-8s %-28s base=%-14s fresh=%-14s %s\n",
			marker, r.circuit, r.metric, r.base, r.fresh, r.status)
	}
	return failed
}

// appendMarkdown appends a GitHub job-summary table. Only rows a human
// should look at (failures and wall-clock outliers) are listed in full; ok
// rows are summarized by count.
func appendMarkdown(path, mode, basePath string, rows []row) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	var b strings.Builder
	ok := 0
	var flagged []row
	for _, r := range rows {
		switch {
		case r.status == "FAIL",
			strings.HasPrefix(r.status, "slow"),
			strings.HasPrefix(r.status, "fast"):
			flagged = append(flagged, r)
		default:
			ok++
		}
	}
	fmt.Fprintf(&b, "### bench-check (%s) vs `%s`\n\n", mode, basePath)
	fmt.Fprintf(&b, "%d row(s) ok, %d flagged.\n\n", ok, len(flagged))
	if len(flagged) > 0 {
		fmt.Fprintf(&b, "| circuit | metric | baseline | fresh | status |\n")
		fmt.Fprintf(&b, "|---|---|---|---|---|\n")
		for _, r := range flagged {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %s |\n",
				r.circuit, r.metric, r.base, r.fresh, r.status)
		}
		fmt.Fprintf(&b, "\n")
	}
	_, err = io.WriteString(f, b.String())
	return err
}
