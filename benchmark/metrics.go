package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// metricDef names one metric the benchmark prints and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run. Every workload prints all
// of them; BENCHMARK.json carries the same names and units (the smoke test
// keeps the two in step).
var endToEnd = []metricDef{
	{"wall_s", "s"},      // one round: the workload's inputs, once
	{"setup_s", "s"},     // building the inputs (and, for serve-mix, the server)
	{"max_rss_mb", "MB"}, // peak resident set of the run's process
}

var atpgPhases = []string{"random", "directed", "podem", "compaction"}

// perLayer lists the metrics of a traced run, layer by layer. A layer the
// workload never crosses reads 0.
var perLayer = layerDefs(benchmarkWorkloads())

func layerDefs(ws []*workload) []metricDef {
	var defs []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit})
		}
	}
	phase := func(prefix string) {
		add("s", prefix+".wall_s")
		add("count", prefix+".fsim_vectors", prefix+".fsim_evals", prefix+".fsim_group_passes")
	}
	for _, p := range atpgPhases {
		phase("atpg." + p)
	}
	add("s", "atpg.self.wall_s")
	add("count", "atpg.seq_len", "podem.backtracks")
	phase("core.selection")
	phase("core.reverse_order")
	add("count", "core.candidates_scored")
	add("ratio", "core.selection.accept_ratio", "core.reverse_order.kept_ratio")
	add("s", "expt.glue.wall_s")
	for _, w := range ws {
		for _, c := range w.cells {
			add("s", c+".wall_s")
			if strings.HasPrefix(c, "fsim.") {
				add("ns", c+".ns_per_eval")
				add("ratio", c+".cpu_util")
				add("count", c+".evals")
			}
		}
	}
	add("ratio", "fsim.cpu_util", "fsim.sweep_fallback_ratio", "fsim.skip_ratio", "fsim.slab_idle_ratio")
	add("ms", "serve.submit_p50_ms", "serve.submit_p99_ms")
	add("s", "serve.queue_wait_p50_s", "serve.run_p50_s")
	add("ms", "serve.post_pipeline_p50_ms", "serve.artifact_fetch_p50_ms")
	add("count", "serve.joined", "serve.rejected")
	add("ratio", "store.hit_ratio")
	add("1/s", "serve.jobs_per_s")
	add("s", "serve.cold_job_p50_s", "serve.cold_job_p75_s")
	add("ms", "serve.hit_job_p50_ms", "serve.hit_job_p99_ms")
	add("ratio", "telemetry.overhead_ratio")
	return defs
}

// endToEndValues computes the metrics of the untraced rounds from their
// timings and the set-up chunks' mean times. Every round runs the same
// inputs, so rounds differ only by the machine's noise, and wall_s is their
// median. On a machine shared with other tenants, speed swings by a third
// for seconds to minutes at a time; over three sets of ten runs the median
// round spread less across runs than the fastest round or the sum of each
// op's fastest repeat (see README.md).
func endToEndValues(rounds []*roundResult, setupChunks []float64) map[string]float64 {
	return map[string]float64{
		"wall_s":     median(roundWalls(rounds, false)),
		"setup_s":    median(setupChunks),
		"max_rss_mb": maxRSSMB(),
	}
}

// fastest returns the fastest of the traced or of the untraced rounds, or
// nil when there is none.
func fastest(rounds []*roundResult, traced bool) *roundResult {
	var best *roundResult
	for _, rr := range rounds {
		if rr.traced == traced && (best == nil || rr.wall < best.wall) {
			best = rr
		}
	}
	return best
}

func roundWalls(rounds []*roundResult, traced bool) []float64 {
	var xs []float64
	for _, rr := range rounds {
		if rr.traced == traced {
			xs = append(xs, rr.wall.Seconds())
		}
	}
	return xs
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// layerValues computes the per-layer metrics from the fastest traced round
// of a traced workload, or from the fastest untraced round of the others,
// which add nothing inside the program and are timed from outside.
// Served-job latencies are pooled over those rounds, for their tails.
func layerValues(w *workload, rounds []*roundResult) map[string]float64 {
	traced := w.traced && fastest(rounds, true) != nil
	v := roundLayer(w, fastest(rounds, traced))
	var ops []opResult
	for _, rr := range rounds {
		if rr.traced == traced {
			ops = append(ops, rr.ops...)
		}
	}
	step := func(name string, classes ...string) []float64 {
		var xs []float64
		for _, op := range ops {
			if d, ok := op.steps[name]; ok && op.err == nil && contains(classes, op.class) {
				xs = append(xs, ms(d))
			}
		}
		return xs
	}
	latency := func(class string) []float64 {
		var xs []float64
		for _, op := range ops {
			if op.err == nil && op.class == class {
				xs = append(xs, ms(op.latency))
			}
		}
		return xs
	}
	submit := step("submit", "cold", "hit", "joined")
	v["serve.submit_p50_ms"] = median(submit)
	v["serve.submit_p99_ms"] = percentile(submit, 99)
	v["serve.queue_wait_p50_s"] = median(step("queue_wait", "cold")) / 1e3
	v["serve.run_p50_s"] = median(step("run", "cold")) / 1e3
	v["serve.post_pipeline_p50_ms"] = median(step("post_pipeline", "cold"))
	v["serve.artifact_fetch_p50_ms"] = median(step("fetch", "cold", "hit"))
	cold, hit := latency("cold"), latency("hit")
	v["serve.cold_job_p50_s"] = median(cold) / 1e3
	v["serve.cold_job_p75_s"] = percentile(cold, 75) / 1e3
	v["serve.hit_job_p50_ms"] = median(hit)
	v["serve.hit_job_p99_ms"] = percentile(hit, 99)

	if traced {
		v["telemetry.overhead_ratio"] = median(roundWalls(rounds, true))/median(roundWalls(rounds, false)) - 1
	}
	return v
}

// roundLayer computes one round's per-layer values.
func roundLayer(w *workload, rr *roundResult) map[string]float64 {
	v := map[string]float64{}

	// Pipeline layers: the phases of every traced compile, summed.
	sum := map[string]telemetry.PhaseStats{}
	var omega, kept float64
	for _, op := range rr.ops {
		if op.phases == nil {
			continue
		}
		v["atpg.seq_len"] += float64(op.seqLen)
		omega += float64(op.omega)
		kept += float64(op.kept)
		for _, p := range op.phases {
			s := sum[p.Span]
			s.WallNS += p.WallNS
			if s.Counters == nil {
				s.Counters = map[string]int64{}
			}
			for k, c := range p.Counters {
				s.Counters[k] += c
			}
			sum[p.Span] = s
		}
	}
	if len(sum) > 0 {
		wall := func(span string) float64 { return sum[span].Wall().Seconds() }
		children := func(of string) float64 {
			var s float64
			for span := range sum {
				if parent(span) == of {
					s += wall(span)
				}
			}
			return s
		}
		phase := func(prefix, span string) {
			c := sum[span].Counters
			v[prefix+".wall_s"] = wall(span)
			v[prefix+".fsim_vectors"] = float64(c["fsim.vectors"])
			v[prefix+".fsim_evals"] = float64(spanEvals(c))
			v[prefix+".fsim_group_passes"] = float64(c["fsim.group_passes"])
		}
		for _, p := range atpgPhases {
			phase("atpg."+p, "pipeline/atpg/"+p)
		}
		phase("core.selection", "pipeline/core/selection")
		phase("core.reverse_order", "pipeline/reverse-order")
		v["atpg.self.wall_s"] = wall("pipeline/atpg") - children("pipeline/atpg")
		v["expt.glue.wall_s"] = wall("pipeline") - children("pipeline")
		pc := sum["pipeline"].Counters
		candidates := float64(pc["core.candidates_scored"])
		v["podem.backtracks"] = float64(pc["podem.backtracks"])
		v["core.candidates_scored"] = candidates
		v["core.selection.accept_ratio"] = ratio(omega, candidates)
		v["core.reverse_order.kept_ratio"] = ratio(kept, omega)
	}

	// Cells: each (circuit, model) compile or graded session.
	cellCPU := map[string]time.Duration{}
	for _, op := range rr.ops {
		if op.err != nil || (op.class != "compile" && op.class != "grade") {
			continue
		}
		v[op.cell+".wall_s"] += op.latency.Seconds()
		if op.class == "grade" {
			v[op.cell+".evals"] += float64(snapEvals(op.ctr))
			cellCPU[op.cell] += op.cpu
		}
	}
	for cell, cpu := range cellCPU {
		v[cell+".ns_per_eval"] = ratio(float64(cpu.Nanoseconds()), v[cell+".evals"])
		v[cell+".cpu_util"] = ratio(cpu.Seconds(), v[cell+".wall_s"]*float64(w.threads))
	}

	// Kernel: the round's counters.
	c := rr.ctr
	vectors := float64(c.Get(telemetry.CtrVectors))
	idle := float64(c.Get(telemetry.CtrSlabLanesIdle))
	v["fsim.cpu_util"] = ratio(rr.cpu.Seconds(), rr.wall.Seconds()*float64(w.threads))
	v["fsim.sweep_fallback_ratio"] = ratio(float64(c.Get(telemetry.CtrSweepFallbacks)), vectors)
	v["fsim.skip_ratio"] = ratio(float64(c.Get(telemetry.CtrGatesSkipped)), float64(snapEvals(c)))
	v["fsim.slab_idle_ratio"] = ratio(idle, idle+vectors)

	// Server: job classes.
	classes := map[string]float64{}
	for _, op := range rr.ops {
		classes[op.class]++
	}
	if served := classes["cold"] + classes["hit"] + classes["joined"]; served > 0 {
		v["serve.joined"] = classes["joined"]
		v["serve.rejected"] = classes["rejected"]
		v["store.hit_ratio"] = ratio(classes["hit"], classes["hit"]+classes["cold"])
		v["serve.jobs_per_s"] = served / rr.wall.Seconds()
	}
	return v
}

// details fills the report's Detail block: the median round beside the
// fastest, the sample count and tail latency of every class of successful
// op over the untraced rounds, and the seconds of every pipeline span of the
// fastest traced round.
func details(rep *report, rounds []*roundResult) {
	d := rep.Detail
	d["setup_chunks"] = float64(len(rep.SetupS))
	d["rounds.untraced"] = float64(len(roundWalls(rounds, false)))
	d["rounds.traced"] = float64(len(roundWalls(rounds, true)))
	d["round.median_s"] = median(roundWalls(rounds, false))
	d["round.fastest_s"] = fastest(rounds, false).wall.Seconds()
	d["round.fastest_cpu_s"] = fastest(rounds, false).cpu.Seconds()
	byClass := map[string][]float64{}
	for _, rr := range rounds {
		for _, op := range rr.ops {
			if !rr.traced && op.err == nil {
				byClass[op.class] = append(byClass[op.class], ms(op.latency))
			}
		}
	}
	for class, xs := range byClass {
		tail(d, class, xs)
	}
	if rr := fastest(rounds, true); rr != nil {
		for _, op := range rr.ops {
			for _, p := range op.phases {
				d["span."+strings.ReplaceAll(p.Span, "/", ".")+".wall_s"] += p.Wall().Seconds()
			}
		}
	}
}

// tail records the sample count, the median and the highest percentile with
// at least ten samples beyond it (tail_pct 0: too few samples for a tail).
func tail(d map[string]float64, prefix string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	p := tailPercentile(len(xs))
	d[prefix+".samples"] = float64(len(xs))
	d[prefix+".p50_ms"] = median(xs)
	d[prefix+".tail_pct"] = p
	if p > 0 {
		d[prefix+".tail_ms"] = percentile(xs, p)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if x == y {
			return true
		}
	}
	return false
}
