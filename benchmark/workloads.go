package main

import "runtime"

// A workload is one set of inputs the benchmark runs. setup builds an
// instance from the seed; the instance then runs rounds, the same inputs
// each time, until the run's time is spent.
type workload struct {
	name string
	// workers is the fsim Workers setting of every call (host block).
	workers int
	// threads is the most threads the workload keeps busy at once: the
	// denominator of cpu_util.
	threads int
	// traced marks the workloads whose rounds can run under a
	// telemetry.Recorder: the compiles, which call expt.RunPipeline directly.
	traced bool
	// fresh makes every round start from a newly set-up instance (serve-mix
	// starts each round on an empty store).
	fresh bool
	// minSamples is how many successful ops of a class a run must pool
	// before it ends: a tail percentile needs ten samples beyond it.
	minSamples map[string]int
	// cells are the (circuit, model) pairs the workload runs, each named
	// expt.<circuit>.<model> or fsim.<circuit>.<model>.
	cells []string
	setup func(seed uint64, dir string) (instance, error)
}

var allModels = []string{"stuck-at", "transition", "bridge"}

// benchmarkWorkloads is the benchmark. The names are fixed: later changes
// cite them.
//
//   - compile-stuck is where PODEM and restoration compaction dominate the
//     pipeline; it runs at Workers=1 so that pool effects stay out of it.
//   - compile-models skips PODEM (it targets stuck-at faults only) and falls
//     back to the dense kernel for both models: it stresses the model paths
//     and the worker pool on many small fsim calls.
//   - grade-session is pure kernel and pool, no ATPG. s35932's netlist is
//     the working set that forces the slab kernel to one lane, so a kernel
//     that wins on s5378 and loses on large netlists cannot hide.
//   - serve-mix shares one server between the store-hit path and the
//     compile path, so a change that speeds one and slows the other shows.
func benchmarkWorkloads() []*workload {
	cpus := runtime.NumCPU()
	return []*workload{
		compileWorkload("compile-stuck", compileSpec{
			circuits: []string{"s208", "s386", "s820"},
			models:   []string{"stuck-at"},
			configs:  1,
			workers:  1,
		}),
		compileWorkload("compile-models", compileSpec{
			circuits: []string{"s208", "s298"},
			models:   []string{"transition", "bridge"},
			configs:  3,
			workers:  cpus,
		}),
		gradeWorkload("grade-session", gradeSpec{
			sessions: []sessionSpec{{"s5378", 2, 150}, {"s35932", 2, 4}},
			models:   allModels,
			workers:  cpus,
		}),
		serveWorkload("serve-mix", serveSpec{
			circuits:  []string{"s27", "s208", "s298", "s382", "s386", "s400", "s444", "s526"},
			configs:   2,
			resubmits: 368,
			clients:   2,
			// p99 of the hits and p75 of the cold jobs, ten samples beyond each.
			minSamples: map[string]int{"hit": 1000, "cold": 40},
		}),
	}
}

// tinyWorkloads are the benchmark's workloads on inputs small enough for a
// unit test: the same code paths, seconds in total. Their tail percentiles
// rest on too few samples to mean anything; the test checks only names and
// units.
func tinyWorkloads() []*workload {
	return []*workload{
		compileWorkload("compile-stuck", compileSpec{circuits: []string{"s27", "s208"}, models: []string{"stuck-at"}, configs: 1, lg: 64, workers: 1}),
		compileWorkload("compile-models", compileSpec{circuits: []string{"s208"}, models: []string{"transition", "bridge"}, configs: 1, lg: 64, workers: 2}),
		gradeWorkload("grade-session", gradeSpec{sessions: []sessionSpec{{"s27", 2, 64}, {"s208", 1, 32}}, models: allModels, workers: 2}),
		serveWorkload("serve-mix", serveSpec{circuits: []string{"s27", "s208"}, configs: 2, resubmits: 16, lg: 64, clients: 2}),
	}
}

func compileWorkload(name string, s compileSpec) *workload {
	w := &workload{name: name, workers: s.workers, threads: s.workers, traced: true, setup: s.setup}
	for _, c := range s.circuits {
		for _, m := range s.models {
			w.cells = append(w.cells, "expt."+c+"."+m)
		}
	}
	return w
}

func gradeWorkload(name string, s gradeSpec) *workload {
	w := &workload{name: name, workers: s.workers, threads: s.workers, setup: s.setup}
	for _, ss := range s.sessions {
		for _, m := range s.models {
			w.cells = append(w.cells, "fsim."+ss.circuit+"."+m)
		}
	}
	return w
}

// serveWorkload runs every job at Workers=1 with two run slots: two
// pipelines, two client connections, two busy threads at most.
func serveWorkload(name string, s serveSpec) *workload {
	return &workload{name: name, workers: 1, threads: serveSlots, fresh: true, minSamples: s.minSamples, setup: s.setup}
}

func findWorkload(ws []*workload, name string) *workload {
	for _, w := range ws {
		if w.name == name {
			return w
		}
	}
	return nil
}
