// Command experiments regenerates every table and figure of the paper and
// prints them in order. It is the tool behind EXPERIMENTS.md.
//
//	experiments [-skip-large] [-lg N] [-seed N] [-workers N] [section ...]
//
// Sections: table1 table2 table3 table4 table5 table6 obs figure1 baselines
// random models selftest bench kernelbench slabbench modelbench (default:
// all but bench, kernelbench, slabbench and modelbench). -skip-large omits
// s5378 and s35932 from table6 and s5378 from the observation-point tables.
// -workers shards fault simulation over N goroutines (default GOMAXPROCS;
// every result is bit-identical for any value) and -kernel selects the
// fault-simulation kernel (auto/event/dense/slab; also bit-identical). The
// bench section runs each Table 6 circuit (restrictable with -circuits
// name,name for cheap CI smokes) with a fresh telemetry recorder and writes
// per-circuit phase timings and counters to -bench-json (the
// BENCH_pipeline.json baseline trajectory). The kernelbench section times
// the dense and event kernels head to head on the suite circuits under the
// pipeline's dominant workload (weighted-sequence re-simulation) and writes
// the comparison to -kernel-json (the BENCH_event.json baseline); the
// slabbench section adds the slab kernel and near-full fault universes —
// where multi-group batching pays off — and writes -slab-json (the
// BENCH_slab.json baseline); the modelbench section times the dense and
// event kernels per fault model (stuck-at, transition, bridge) and writes
// -model-json (the BENCH_model.json baseline; `make bench-check` diffs fresh
// smokes of all of them against the committed baselines). The models section
// compiles two suite circuits once per fault model and prints per-model
// fault counts and coverage columns; -fault-model switches the fault
// universe the other pipeline sections target. -progress streams per-phase
// telemetry to stderr, -metrics exports completed spans as JSON lines, and
// -pprof serves pprof, expvar and the Prometheus /metrics exposition while
// the run lasts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fsim"
	"repro/internal/lfsr"
	"repro/internal/randutil"
	"repro/internal/sim"
	"repro/internal/tables"
	"repro/internal/threeweight"
)

var (
	flagSkipLarge  = flag.Bool("skip-large", false, "skip s5378 and s35932")
	flagLG         = flag.Int("lg", 0, "per-assignment sequence length (0 = default)")
	flagSeed       = flag.Uint64("seed", 1, "master seed")
	flagWorkers    = flag.Int("workers", runtime.GOMAXPROCS(0), "fault-simulation worker goroutines (results are identical for any value)")
	flagKernel     = flag.String("kernel", "auto", "fault-simulation kernel: auto, event, dense or slab (results are identical for any value)")
	flagSlabLanes  = flag.Int("slab-lanes", 0, "slab kernel fault-group batch width W (0 = adaptive; results are identical for any value)")
	flagBenchJSON  = flag.String("bench-json", "BENCH_pipeline.json", "output file of the bench section")
	flagKernelJSON = flag.String("kernel-json", "BENCH_event.json", "output file of the kernelbench section")
	flagSlabJSON   = flag.String("slab-json", "BENCH_slab.json", "output file of the slabbench section")
	flagModel      = flag.String("fault-model", "", "fault model for the pipeline sections: stuck-at (default), transition or bridge (part of the run's identity)")
	flagModelJSON  = flag.String("model-json", "BENCH_model.json", "output file of the modelbench section")
	flagCircuits   = flag.String("circuits", "", "comma-separated circuit filter for the bench section (empty = all Table 6 circuits)")
	flagProgress   = flag.Bool("progress", false, "print per-phase telemetry progress to stderr")
	flagMetrics    = flag.String("metrics", "", "write telemetry span events to this file as JSON lines")
	flagPprof      = flag.String("pprof", "", "serve net/http/pprof, expvar and Prometheus /metrics on this address")
)

func main() {
	flag.Parse()
	sections := flag.Args()
	if len(sections) == 0 {
		sections = []string{"table1", "table2", "table3", "table4", "table5",
			"table6", "obs", "figure1", "baselines", "random", "models", "selftest"}
	}
	if *flagPprof != "" {
		srv, err := wbist.ServeDebug(*flagPprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "experiments: pprof/expvar on http://%s/debug/, Prometheus on /metrics\n", srv.Addr())
		go func() {
			if err := <-srv.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: debug server:", err)
			}
		}()
	}
	kernel, err := wbist.ParseKernel(*flagKernel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	cfg := wbist.Config{LG: *flagLG, Seed: *flagSeed, Workers: *flagWorkers, Kernel: kernel, SlabLanes: *flagSlabLanes, FaultModel: *flagModel}
	closeMetrics := func() error { return nil }
	if *flagMetrics != "" {
		f, err := os.Create(*flagMetrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		sink := wbist.NewJSONLSink(f)
		cfg.Telemetry = wbist.NewRecorder(sink)
		closeMetrics = func() error {
			if err := sink.Close(); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
	}
	if *flagProgress {
		if cfg.Telemetry == nil {
			cfg.Telemetry = wbist.NewRecorder()
		}
		cfg.Telemetry.SetProgress(os.Stderr)
	}
	for _, s := range sections {
		var err error
		switch s {
		case "table1":
			err = table1()
		case "table2":
			err = table2()
		case "table3":
			err = table3()
		case "table4":
			err = table4(cfg)
		case "table5":
			err = table5()
		case "table6":
			err = table6(cfg)
		case "obs":
			err = obsTables(cfg)
		case "figure1":
			err = figure1(cfg)
		case "baselines":
			err = baselines(cfg)
		case "random":
			err = randomExtension(cfg)
		case "models":
			err = modelCoverage(cfg)
		case "selftest":
			err = selftest(cfg)
		case "bench":
			err = benchJSON(cfg)
		case "kernelbench":
			err = kernelBench(cfg)
		case "slabbench":
			err = slabBench(cfg)
		case "modelbench":
			err = modelBench(cfg)
		default:
			err = fmt.Errorf("unknown section %q", s)
		}
		if err != nil {
			closeMetrics()
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if err := closeMetrics(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments: metrics:", err)
		os.Exit(1)
	}
}

// table1 prints the s27 deterministic test sequence with per-time detection
// counts (the paper's Table 1).
func table1() error {
	c, err := wbist.LoadCircuit("s27")
	if err != nil {
		return err
	}
	seq, err := sim.ParseSequence(mustS27Sequence())
	if err != nil {
		return err
	}
	faults := wbist.Faults(c)
	detected, detTime := wbist.Simulate(c, seq, faults, wbist.X)
	byTime := map[int]int{}
	total := 0
	for i := range faults {
		if detected[i] {
			byTime[detTime[i]]++
			total++
		}
	}
	t := tables.New("Table 1: A test sequence for s27", "u", "i=0", "i=1", "i=2", "i=3", "faults detected")
	for u := 0; u < seq.Len(); u++ {
		cells := []string{tables.Int(u)}
		for i := 0; i < 4; i++ {
			cells = append(cells, seq.At(u, i).String())
		}
		cells = append(cells, tables.Int(byTime[u]))
		t.Add(cells...)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("T detects %d of %d collapsed faults\n", total, len(faults))
	return nil
}

// table2 prints the weighted sequence generated by the Section 2 example
// weights (the paper's Table 2, matched exactly).
func table2() error {
	a := wbist.Assignment{Subs: []string{"01", "0", "100", "1"}}
	seq := a.GenSequence(12)
	t := tables.New("Table 2: The weighted sequence of assignment (01, 0, 100, 1)",
		"u", "i=0", "i=1", "i=2", "i=3")
	for u := 0; u < seq.Len(); u++ {
		cells := []string{tables.Int(u)}
		for i := 0; i < 4; i++ {
			cells = append(cells, seq.At(u, i).String())
		}
		t.Add(cells...)
	}
	return t.Render(os.Stdout)
}

// table3 synthesizes the paper's Table 3 FSM and proves by simulation that
// it emits the three subsequences.
func table3() error {
	subs := []string{"00010", "01011", "11001"}
	c, fsm, err := wbist.SynthesizeFSM("table3", subs)
	if err != nil {
		return err
	}
	st := c.Stats()
	fmt.Printf("Table 3: one FSM producing %s repeatedly\n", strings.Join(subs, ", "))
	fmt.Printf("synthesized: %d state variables (%d reachable states), %d gates, %d flip-flops\n",
		fsm.StateBits, fsm.Len, st.Gates, st.DFFs)
	// Simulate 10 cycles and print the outputs.
	s := sim.New(c, wbist.Zero)
	t := tables.New("simulated outputs", "t", "z1", "z2", "z3")
	for u := 0; u < 10; u++ {
		out := s.Step([]wbist.Value{wbist.One})
		t.Add(tables.Int(u), out[0].String(), out[1].String(), out[2].String())
	}
	return t.Render(os.Stdout)
}

// table4 prints the weight set S the procedure accumulates for s27.
func table4(cfg wbist.Config) error {
	r, err := wbist.RunCircuit("s27", cfg)
	if err != nil {
		return err
	}
	fmt.Println("Table 4: the set of weights S accumulated for s27")
	t := tables.New("", "j", "alpha_j")
	for j, alpha := range r.Core.S.Subs {
		t.Add(tables.Int(j), alpha)
	}
	return t.Render(os.Stdout)
}

// table5 prints the sets A_i for s27 at u=9 with the paper's Table 4 weight
// set (matched exactly against the published numbers by the test suite).
func table5() error {
	seq, err := sim.ParseSequence(mustS27Sequence())
	if err != nil {
		return err
	}
	s := []string{"0", "1", "00", "10", "01", "11",
		"000", "100", "010", "110", "001", "101", "011", "111"}
	fmt.Println("Table 5: the sets A_i for s27 at u=9, L_S=3 (S of Table 4)")
	t := tables.New("", "i", "j", "(index) alpha", "n_m")
	for i := 0; i < 4; i++ {
		ai := core.BuildAi(s, seq.Input(i), 9, 3)
		for j, e := range ai {
			t.Add(tables.Int(i), tables.Int(j),
				fmt.Sprintf("(%d)%s", e.Index, e.Alpha), tables.Int(e.Matches))
		}
	}
	return t.Render(os.Stdout)
}

func table6(cfg wbist.Config) error {
	t := tables.New("Table 6: Experimental results",
		"circuit", "len", "det", "seq", "subs", "len*", "num", "out")
	for _, name := range wbist.Table6Names() {
		if *flagSkipLarge && (name == "s5378" || name == "s35932") {
			continue
		}
		r, err := wbist.RunCircuit(name, cfg)
		if err != nil {
			return err
		}
		row := wbist.Table6(r)
		t.Add(row.Circuit, tables.Int(row.Len), tables.Int(row.Det),
			tables.Int(row.Seq), tables.Int(row.Subs), tables.Int(row.MaxLen),
			tables.Int(row.FSMs), tables.Int(row.Outputs))
		fmt.Fprintf(os.Stderr, "table6: %s done\n", name)
	}
	return t.Render(os.Stdout)
}

func obsTables(cfg wbist.Config) error {
	for k, name := range wbist.ObsTableNames() {
		if *flagSkipLarge && name == "s5378" {
			continue
		}
		r, err := wbist.RunCircuit(name, cfg)
		if err != nil {
			return err
		}
		res := wbist.ObsExperiment(r)
		t := tables.New(fmt.Sprintf("Table %d: Observation point insertion for %s", 7+k, name),
			"seq", "sub", "len", "f.e.", "obs", "f.e.")
		for _, row := range res.FilteredRows(99) {
			t.Add(tables.Int(row.Seq), tables.Int(row.Subs), tables.Int(row.Len),
				tables.F1(row.FE), tables.Int(row.Obs), tables.F1(row.FEObs))
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		fmt.Fprintf(os.Stderr, "obs: %s done\n", name)
	}
	return nil
}

// figure1 synthesizes the complete test generator for s27 and verifies it
// cycle by cycle against the software-generated weighted sequences.
func figure1(cfg wbist.Config) error {
	r, err := wbist.RunCircuit("s27", cfg)
	if err != nil {
		return err
	}
	g, err := wbist.Synthesize(r)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 1: test generator for s27 (%d assignments, L_G=%d)\n",
		g.NumAssignments, g.LG)
	fmt.Printf("hardware: %d gates, %d flip-flops, %d weight FSMs\n",
		g.NumGates, g.NumDFFs, len(g.FSMs))
	// Verify generator outputs == software sequences for every window.
	s := sim.New(g.Circuit, wbist.Zero)
	mismatches := 0
	for j, a := range r.Compacted {
		want := a.GenSequence(g.LG)
		for u := 0; u < g.LG; u++ {
			out := s.Step([]wbist.Value{wbist.One})
			for i := range out {
				if out[i] != want.At(u, i) {
					mismatches++
				}
			}
		}
		_ = j
	}
	fmt.Printf("simulation check vs software sequences: %d mismatching values (want 0)\n", mismatches)
	if mismatches > 0 {
		return fmt.Errorf("generator verification failed")
	}
	return nil
}

// baselines compares the proposed method against pure pseudo-random (LFSR)
// and the 3-weight scheme of [10] on a few circuits.
func baselines(cfg wbist.Config) error {
	t := tables.New("Baselines: coverage of T's faults (percent)",
		"circuit", "targets", "proposed", "lfsr", "3-weight")
	// cmphard is the random-pattern-resistant workload (a 16-bit comparator
	// gating a counter) that separates the methods; see internal/iscas.
	for _, name := range []string{"s298", "s344", "s386", "s641", "cmphard"} {
		r, err := wbist.RunCircuit(name, cfg)
		if err != nil {
			return err
		}
		lg := r.Config.LG
		budget := lg * len(r.Compacted) // equal pattern budget for baselines
		// Pure pseudo-random.
		src, err := lfsr.New(23, 0xBEEF)
		if err != nil {
			return err
		}
		seq := src.Sequence(r.Circuit.NumInputs(), budget)
		det, _ := wbist.Simulate(r.Circuit, seq, r.Targets, r.Init)
		nl := 0
		for _, d := range det {
			if d {
				nl++
			}
		}
		// 3-weight [10].
		as, err := threeweight.Derive(r.T, r.DetTimes, 8, len(r.Compacted))
		if err != nil {
			return err
		}
		tw, err := threeweight.Evaluate(r.Circuit, as, r.Targets, budget/len(as), r.Init, 0xACE1)
		if err != nil {
			return err
		}
		t.Add(name, tables.Int(len(r.Targets)),
			tables.F1(100*wbist.Table6(r).Coverage),
			tables.F1(100*float64(nl)/float64(len(r.Targets))),
			tables.F1(100*tw.Coverage(len(r.Targets))))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("(equal total pattern budget per method; 'proposed' is guaranteed 100 by construction)")
	return nil
}

// randomExtension measures the paper's future-work idea: leading
// pseudo-random LFSR windows reduce the number of subsequences the weight
// procedure must generate.
func randomExtension(cfg wbist.Config) error {
	t := tables.New("Extension: pseudo-random windows before weight selection",
		"circuit", "rand det", "seq", "subs", "len*", "seq(base)", "subs(base)")
	for _, name := range []string{"s298", "s344", "s386"} {
		base, err := wbist.RunCircuit(name, cfg)
		if err != nil {
			return err
		}
		rcfg := cfg
		rcfg.RandomWindows = 2
		r, err := wbist.RunCircuit(name, rcfg)
		if err != nil {
			return err
		}
		row := wbist.Table6(r)
		baseRow := wbist.Table6(base)
		t.Add(name, tables.Int(r.Core.RandomDetected),
			tables.Int(row.Seq), tables.Int(row.Subs), tables.Int(row.MaxLen),
			tables.Int(baseRow.Seq), tables.Int(baseRow.Subs))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("(2 LFSR windows of L_G cycles each; base = paper configuration)")
	return nil
}

// modelCoverage runs the full pipeline once per fault model on two suite
// circuits and prints the per-model fault counts, detection by T, and the
// coverage the weighted sequences achieve over T's faults. Stuck-at is the
// paper's model; the transition and bridging rows show the same hardware
// recipe compiled against the launch-on-capture and 2-node wired-AND/OR
// universes.
func modelCoverage(cfg wbist.Config) error {
	t := tables.New("Fault-model comparison: pipeline per model",
		"circuit", "model", "faults", "det by T", "trans cov", "seq", "w. coverage")
	for _, name := range []string{"s298", "s344"} {
		for _, model := range wbist.FaultModelNames() {
			mcfg := cfg
			mcfg.FaultModel = model
			r, err := wbist.RunCircuit(name, mcfg)
			if err != nil {
				return err
			}
			row := wbist.Table6(r)
			t.Add(name, model, tables.Int(r.TotalFaults), tables.Int(row.Det),
				tables.F1(100*float64(row.Det)/float64(max(r.TotalFaults, 1))),
				tables.Int(row.Seq), tables.F1(100*row.Coverage))
		}
		fmt.Fprintf(os.Stderr, "models: %s done\n", name)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println("(trans cov = faults of the model's collapsed universe detected by T, percent;")
	fmt.Println(" w. coverage = coverage of T's faults by the compacted weighted sequences)")
	return nil
}

// selftest assembles generator + CUT into one netlist, simulates the whole
// session, and measures signature-based coverage through a MISR.
func selftest(cfg wbist.Config) error {
	rcfg := cfg
	if rcfg.LG == 0 {
		rcfg.LG = 300
	}
	run, err := wbist.RunCircuit("s298", rcfg)
	if err != nil {
		return err
	}
	rep, err := wbist.RunBISTSession(run, 16)
	if err != nil {
		return err
	}
	fmt.Printf("Self-test (s298, continuous session, 16-bit MISR):\n")
	fmt.Printf("session: %d cycles, golden signature %04x\n", rep.SessionLength, rep.GoldenSignature)
	fmt.Printf("targets: %d; by compare: %d; by signature: %d; aliased: %d; tainted: %d\n",
		len(rep.ByCompare), rep.NumByCompare, rep.NumBySignature, rep.Aliased, rep.Tainted)
	return nil
}

// benchJSON runs each Table 6 circuit through a freshly-measured pipeline
// and writes per-circuit phase timings and hot-path counters to the
// -bench-json file. This is the BENCH trajectory subsequent performance work
// is judged against.
func benchJSON(cfg wbist.Config) error {
	type circuitBench struct {
		Circuit  string             `json:"circuit"`
		WallNS   int64              `json:"wall_ns"`
		Phases   []wbist.PhaseStats `json:"phases"`
		Counters map[string]int64   `json:"counters"`
	}
	type benchFile struct {
		Schema   string         `json:"schema"`
		Config   map[string]any `json:"config"`
		Circuits []circuitBench `json:"circuits"`
	}
	out := benchFile{
		Schema: "wbist-bench-pipeline/v1",
		Config: map[string]any{"lg": cfg.LG, "seed": cfg.Seed, "workers": cfg.Workers},
	}
	// The -circuits filter keeps CI bench smokes cheap (one small circuit).
	only := map[string]bool{}
	if *flagCircuits != "" {
		for _, name := range strings.Split(*flagCircuits, ",") {
			only[strings.TrimSpace(name)] = true
		}
	}
	for _, name := range wbist.Table6Names() {
		if *flagSkipLarge && (name == "s5378" || name == "s35932") {
			continue
		}
		if len(only) > 0 && !only[name] {
			continue
		}
		// Earlier sections may have memoized this circuit; force a fresh,
		// fully measured pipeline with its own recorder.
		wbist.ClearRunCache()
		ccfg := cfg
		ccfg.Telemetry = wbist.NewRecorder()
		if *flagProgress {
			ccfg.Telemetry.SetProgress(os.Stderr)
		}
		before := wbist.Counters()
		t0 := time.Now()
		r, err := wbist.RunCircuit(name, ccfg)
		if err != nil {
			return err
		}
		out.Circuits = append(out.Circuits, circuitBench{
			Circuit:  name,
			WallNS:   time.Since(t0).Nanoseconds(),
			Phases:   r.Metrics,
			Counters: wbist.Counters().Sub(before).Map(),
		})
		fmt.Fprintf(os.Stderr, "bench: %s done\n", name)
	}
	f, err := os.Create(*flagBenchJSON)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("bench: wrote %d circuit(s) to %s\n", len(out.Circuits), *flagBenchJSON)
	return nil
}

// weightedWorkload builds the kernel benchmarks' stimulus: a weighted
// sequence with the paper's subsequence lengths, so most inputs are constant
// or toggle with a short period — the low input activity the event kernel
// exploits in production.
func weightedWorkload(numInputs int, seed uint64, lg int) *sim.Sequence {
	rng := randutil.New(seed + 977)
	subs := make([]string, numInputs)
	lengths := []int{1, 1, 2, 2, 4, 8}
	for i := range subs {
		b := make([]byte, lengths[rng.Intn(len(lengths))])
		for j := range b {
			b[j] = '0' + byte(rng.Intn(2))
		}
		subs[i] = string(b)
	}
	return core.Assignment{Subs: subs}.GenSequence(lg)
}

// kernelBench times the dense and event fault-simulation kernels head to
// head and writes the BENCH_event.json comparison. The workload is the
// pipeline's dominant one — re-simulating a weighted sequence (short
// per-input subsequences repeated periodically, so consecutive vectors
// differ in few inputs) against the collapsed fault list — which is what the
// Section 4 candidate-scoring and reverse-order passes spend their time on.
// Workers is pinned to 1 so the comparison isolates the kernel; fault lists
// are capped at 10 groups to keep the large circuits affordable.
func kernelBench(cfg wbist.Config) error {
	type kernelStats struct {
		WallNS          int64   `json:"wall_ns"`
		GateEvals       int64   `json:"gate_evals"`
		EventsScheduled int64   `json:"events_scheduled"`
		GatesSkipped    int64   `json:"gates_skipped"`
		ConeHits        int64   `json:"cone_hits"`
		SweepFallbacks  int64   `json:"sweep_fallbacks"`
		EvalsPerVector  float64 `json:"evals_per_vector"`
	}
	type circuitBench struct {
		Circuit string `json:"circuit"`
		Gates   int    `json:"gates"`
		Faults  int    `json:"faults"`
		// Vectors is the total vector count over all fault-group passes
		// (identical for both kernels: outcomes are bit-identical, so the
		// all-detected early exits fire at the same time units).
		Vectors int64       `json:"vectors"`
		Dense   kernelStats `json:"dense"`
		Event   kernelStats `json:"event"`
		// EvalReduction is dense gate evals / event gate evals (higher is
		// better); Speedup is dense wall / event wall.
		EvalReduction float64 `json:"eval_reduction"`
		Speedup       float64 `json:"speedup"`
		// EventFallback explains rows where the event kernel degenerated to
		// dense-shaped work (e.g. the s208 events_scheduled=0 row): every
		// sweep-mode cycle bypasses the event queue and runs one flat
		// levelized pass instead.
		EventFallback string `json:"event_fallback,omitempty"`
	}
	type benchFile struct {
		Schema   string         `json:"schema"`
		Config   map[string]any `json:"config"`
		Circuits []circuitBench `json:"circuits"`
	}
	lg := cfg.LG
	if lg == 0 {
		lg = 2000
	}
	const maxGroups = 10
	out := benchFile{
		Schema: "wbist-bench-kernel/v1",
		Config: map[string]any{"lg": lg, "seed": cfg.Seed, "workers": 1, "max_fault_groups": maxGroups},
	}
	only := map[string]bool{}
	if *flagCircuits != "" {
		for _, name := range strings.Split(*flagCircuits, ",") {
			only[strings.TrimSpace(name)] = true
		}
	}
	names := append([]string{"s27"}, wbist.Table6Names()...)
	for _, name := range names {
		if *flagSkipLarge && (name == "s5378" || name == "s35932") {
			continue
		}
		if len(only) > 0 && !only[name] {
			continue
		}
		c, err := wbist.LoadCircuit(name)
		if err != nil {
			return err
		}
		faults := wbist.Faults(c)
		if len(faults) > maxGroups*63 {
			faults = faults[:maxGroups*63]
		}
		seq := weightedWorkload(c.NumInputs(), cfg.Seed, lg)
		init := expt.InitFor(name)

		s := fsim.New(c)
		// One calibration pass per kernel collects the (deterministic)
		// counters and sizes the timed batches; the timed repetitions of
		// the two kernels are then interleaved so that slow clock or load
		// drift hits both equally, and each keeps its fastest repetition.
		calibrate := func(k wbist.Kernel) (kernelStats, int64, int64) {
			opts := fsim.Options{Init: init, Workers: 1, Kernel: k}
			s.Run(seq, faults, opts) // warm-up run, untimed
			before := wbist.Counters()
			t0 := time.Now()
			s.Run(seq, faults, opts)
			wall := time.Since(t0).Nanoseconds()
			d := wbist.Counters().Sub(before).Map()
			vecs := d["fsim.vectors"]
			st := kernelStats{
				WallNS:          wall,
				GateEvals:       d["fsim.gate_evals"],
				EventsScheduled: d["fsim.events_scheduled"],
				GatesSkipped:    d["fsim.gates_skipped"],
				ConeHits:        d["fsim.cone_hits"],
				SweepFallbacks:  d["fsim.sweep_fallbacks"],
			}
			if vecs > 0 {
				st.EvalsPerVector = float64(st.GateEvals) / float64(vecs)
			}
			// Small circuits finish in microseconds, where scheduler noise
			// swamps the signal: batch runs until a repetition spans a few
			// milliseconds.
			iters := int64(1)
			if wall > 0 && wall < 8e6 {
				iters = 8e6/wall + 1
			}
			return st, vecs, iters
		}
		timed := func(k wbist.Kernel, iters int64) int64 {
			opts := fsim.Options{Init: init, Workers: 1, Kernel: k}
			t0 := time.Now()
			for i := int64(0); i < iters; i++ {
				s.Run(seq, faults, opts)
			}
			return time.Since(t0).Nanoseconds() / iters
		}
		dense, vecs, denseIters := calibrate(wbist.KernelDense)
		event, _, eventIters := calibrate(wbist.KernelEvent)
		for rep := 0; rep < 5; rep++ {
			if w := timed(wbist.KernelDense, denseIters); w < dense.WallNS {
				dense.WallNS = w
			}
			if w := timed(wbist.KernelEvent, eventIters); w < event.WallNS {
				event.WallNS = w
			}
		}
		cb := circuitBench{
			Circuit: name,
			Gates:   c.NumGates(),
			Faults:  len(faults),
			Vectors: vecs,
			Dense:   dense,
			Event:   event,
		}
		if event.GateEvals > 0 {
			cb.EvalReduction = float64(dense.GateEvals) / float64(event.GateEvals)
		}
		if event.WallNS > 0 {
			cb.Speedup = float64(dense.WallNS) / float64(event.WallNS)
		}
		switch {
		case event.SweepFallbacks > 0 && event.EventsScheduled == 0:
			cb.EventFallback = fmt.Sprintf(
				"all %d cycles ran as levelized sweeps (input activity stayed above the sweep threshold); the event queue never engaged",
				event.SweepFallbacks)
		case event.SweepFallbacks > 0:
			cb.EventFallback = fmt.Sprintf(
				"%d of %d cycles ran as levelized sweeps", event.SweepFallbacks, vecs)
		}
		out.Circuits = append(out.Circuits, cb)
		fmt.Fprintf(os.Stderr, "kernelbench: %s evals %.1fx, wall %.2fx\n",
			name, cb.EvalReduction, cb.Speedup)
	}
	f, err := os.Create(*flagKernelJSON)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("kernelbench: wrote %d circuit(s) to %s\n", len(out.Circuits), *flagKernelJSON)
	return nil
}

// slabBench times the dense, event and slab fault-simulation kernels head to
// head on (near-)full collapsed fault universes and writes the
// BENCH_slab.json comparison. Unlike kernelbench — which caps fault lists at
// 10 groups to keep the event kernel's warm-start measurement affordable —
// the slab kernel's win is multi-group batching, so its benchmark needs
// enough groups for whole W-wide batches; fault lists are capped at 64
// groups only to bound the largest circuits. Workers is pinned to 1 so the
// comparison isolates the kernel. Per-run allocation counts are measured
// directly (runtime.MemStats deltas): the slab row reports both the warm
// arena (steady state) and a cold run forced to rebuild the arena by a
// stride change, and AllocReduction compares the warm run against the
// per-group scratch allocation a non-arena kernel would pay (groups ×
// rebuild cost).
func slabBench(cfg wbist.Config) error {
	type kernelStats struct {
		WallNS       int64 `json:"wall_ns"`
		GateEvals    int64 `json:"gate_evals"`
		AllocsPerRun int64 `json:"allocs_per_run"`
		BytesPerRun  int64 `json:"bytes_per_run"`
	}
	type slabStats struct {
		kernelStats
		// SlabPasses counts W-wide batch walks per run; LanesIdle counts
		// lane-cycles spent evaluating lanes whose group had already reached
		// its dense early-exit point.
		SlabPasses int64 `json:"slab_passes"`
		LanesIdle  int64 `json:"lanes_idle"`
		// Cold* re-measure one run after a lane-width change forced the
		// whole arena to be reallocated — the per-batch price of not having
		// the arena.
		ColdAllocsPerRun int64 `json:"cold_allocs_per_run"`
		ColdBytesPerRun  int64 `json:"cold_bytes_per_run"`
	}
	type circuitBench struct {
		Circuit   string `json:"circuit"`
		Gates     int    `json:"gates"`
		Faults    int    `json:"faults"`
		Groups    int    `json:"groups"`
		SlabLanes int    `json:"slab_lanes"`
		// Vectors is the total vector count over all fault-group passes,
		// identical for all kernels (bit-identical outcomes, and the slab
		// kernel freezes each lane's count at its dense early-exit point).
		Vectors int64       `json:"vectors"`
		Dense   kernelStats `json:"dense"`
		Event   kernelStats `json:"event"`
		Slab    slabStats   `json:"slab"`
		// SpeedupVsDense/Event are dense/event wall over slab wall (higher
		// is better for the slab kernel). AllocReduction is
		// (slab warm allocs + groups × arena-rebuild allocs) / warm allocs:
		// how much per-run allocation the arena saves against per-group
		// scratch allocation.
		SpeedupVsDense float64 `json:"speedup_vs_dense"`
		SpeedupVsEvent float64 `json:"speedup_vs_event"`
		AllocReduction float64 `json:"alloc_reduction"`
	}
	type benchFile struct {
		Schema   string         `json:"schema"`
		Config   map[string]any `json:"config"`
		Circuits []circuitBench `json:"circuits"`
	}
	lg := cfg.LG
	if lg == 0 {
		lg = 1000
	}
	const maxGroups = 64
	out := benchFile{
		Schema: "wbist-bench-slab/v1",
		Config: map[string]any{
			"lg": lg, "seed": cfg.Seed, "workers": 1, "max_fault_groups": maxGroups,
			"alloc_reduction": "(slab.allocs_per_run + groups*(cold-warm)) / slab.allocs_per_run",
		},
	}
	only := map[string]bool{}
	if *flagCircuits != "" {
		for _, name := range strings.Split(*flagCircuits, ",") {
			only[strings.TrimSpace(name)] = true
		}
	}
	names := append([]string{"s27"}, wbist.Table6Names()...)
	for _, name := range names {
		if *flagSkipLarge && (name == "s5378" || name == "s35932") {
			continue
		}
		if len(only) > 0 && !only[name] {
			continue
		}
		c, err := wbist.LoadCircuit(name)
		if err != nil {
			return err
		}
		faults := wbist.Faults(c)
		if len(faults) > maxGroups*63 {
			faults = faults[:maxGroups*63]
		}
		groups := (len(faults) + 62) / 63
		seq := weightedWorkload(c.NumInputs(), cfg.Seed, lg)
		init := expt.InitFor(name)

		s := fsim.New(c)
		optsFor := func(k wbist.Kernel, lanes int) fsim.Options {
			return fsim.Options{Init: init, Workers: 1, Kernel: k, SlabLanes: lanes}
		}
		// allocs measures one run's heap traffic on sim (steady state when
		// sim is warm, first-run scratch growth when it is fresh).
		allocs := func(sim *fsim.Simulator, opts fsim.Options) (int64, int64) {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			sim.Run(seq, faults, opts)
			runtime.ReadMemStats(&m1)
			return int64(m1.Mallocs - m0.Mallocs), int64(m1.TotalAlloc - m0.TotalAlloc)
		}
		// One calibration pass per kernel collects the (deterministic)
		// counters and sizes the timed batches; the timed repetitions are
		// then interleaved so clock or load drift hits every kernel equally,
		// and each keeps its fastest repetition.
		calibrate := func(k wbist.Kernel) (kernelStats, map[string]int64, int64) {
			opts := optsFor(k, cfg.SlabLanes)
			s.Run(seq, faults, opts) // warm-up run, untimed
			before := wbist.Counters()
			t0 := time.Now()
			s.Run(seq, faults, opts)
			wall := time.Since(t0).Nanoseconds()
			d := wbist.Counters().Sub(before).Map()
			st := kernelStats{WallNS: wall, GateEvals: d["fsim.gate_evals"]}
			st.AllocsPerRun, st.BytesPerRun = allocs(s, opts)
			iters := int64(1)
			if wall > 0 && wall < 8e6 {
				iters = 8e6/wall + 1
			}
			return st, d, iters
		}
		timed := func(k wbist.Kernel, iters int64) int64 {
			opts := optsFor(k, cfg.SlabLanes)
			t0 := time.Now()
			for i := int64(0); i < iters; i++ {
				s.Run(seq, faults, opts)
			}
			return time.Since(t0).Nanoseconds() / iters
		}
		dense, dd, denseIters := calibrate(wbist.KernelDense)
		event, _, eventIters := calibrate(wbist.KernelEvent)
		slabK, sd, slabIters := calibrate(wbist.KernelSlab)
		for rep := 0; rep < 5; rep++ {
			if w := timed(wbist.KernelDense, denseIters); w < dense.WallNS {
				dense.WallNS = w
			}
			if w := timed(wbist.KernelEvent, eventIters); w < event.WallNS {
				event.WallNS = w
			}
			if w := timed(wbist.KernelSlab, slabIters); w < slabK.WallNS {
				slabK.WallNS = w
			}
		}
		slab := slabStats{
			kernelStats: slabK,
			SlabPasses:  sd["fsim.slab_passes"],
			LanesIdle:   sd["fsim.slab_lanes_idle"],
		}
		// Cold run: a fresh simulator's first slab pass pays the full arena
		// build — the per-run scratch price a non-arena kernel would pay on
		// every run. (Forcing a stride change on the warm simulator would
		// not work here: the requested width is clamped to the group count,
		// so small universes never re-stride.)
		lanes := min(s.SlabWidth(optsFor(wbist.KernelSlab, cfg.SlabLanes)), groups)
		slab.ColdAllocsPerRun, slab.ColdBytesPerRun = allocs(fsim.New(c), optsFor(wbist.KernelSlab, lanes))

		cb := circuitBench{
			Circuit:   name,
			Gates:     c.NumGates(),
			Faults:    len(faults),
			Groups:    groups,
			SlabLanes: lanes,
			Vectors:   dd["fsim.vectors"],
			Dense:     dense,
			Event:     event,
			Slab:      slab,
		}
		if slabK.WallNS > 0 {
			cb.SpeedupVsDense = float64(dense.WallNS) / float64(slabK.WallNS)
			cb.SpeedupVsEvent = float64(event.WallNS) / float64(slabK.WallNS)
		}
		if warm := slab.AllocsPerRun; warm > 0 {
			rebuild := slab.ColdAllocsPerRun - warm
			if rebuild < 0 {
				rebuild = 0
			}
			cb.AllocReduction = float64(warm+int64(groups)*rebuild) / float64(warm)
		}
		out.Circuits = append(out.Circuits, cb)
		fmt.Fprintf(os.Stderr, "slabbench: %s W=%d wall %.2fx dense / %.2fx event, allocs %.0fx\n",
			name, lanes, cb.SpeedupVsDense, cb.SpeedupVsEvent, cb.AllocReduction)
	}
	f, err := os.Create(*flagSlabJSON)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("slabbench: wrote %d circuit(s) to %s\n", len(out.Circuits), *flagSlabJSON)
	return nil
}

// modelBench times the dense and event kernels per fault model (stuck-at,
// transition, bridge) on the suite circuits and writes the BENCH_model.json
// comparison. The workload mirrors kernelbench — a weighted stimulus against
// the model's collapsed universe — so the file tracks the per-model cost
// trajectory: transition faults pay the launch-history bookkeeping on top of
// every dense pass, and bridge faults pay a second full pass per cycle (the
// nominal resolve plus the forced replay). Before any row is written the
// section verifies the two kernels detected the identical fault set count —
// the bit-identity contract `bench_compare -mode model` then re-checks
// against the committed baseline. Workers is pinned to 1 to isolate the
// kernel; fault lists are capped at 32 groups to bound the largest circuits.
func modelBench(cfg wbist.Config) error {
	type kernelStats struct {
		WallNS    int64 `json:"wall_ns"`
		GateEvals int64 `json:"gate_evals"`
		Vectors   int64 `json:"vectors"`
	}
	type modelStats struct {
		Model    string      `json:"model"`
		Faults   int         `json:"faults"`
		Detected int         `json:"detected"`
		Dense    kernelStats `json:"dense"`
		Event    kernelStats `json:"event"`
		// Speedup is dense wall / event wall (advisory, like every wall
		// number); OverheadVsStuckAt is this model's dense wall over the
		// stuck-at dense wall, the per-model injection cost trajectory.
		Speedup           float64 `json:"speedup"`
		OverheadVsStuckAt float64 `json:"overhead_vs_stuck_at"`
	}
	type circuitBench struct {
		Circuit string       `json:"circuit"`
		Gates   int          `json:"gates"`
		Models  []modelStats `json:"models"`
	}
	type benchFile struct {
		Schema   string         `json:"schema"`
		Config   map[string]any `json:"config"`
		Circuits []circuitBench `json:"circuits"`
	}
	lg := cfg.LG
	if lg == 0 {
		lg = 1000
	}
	const maxGroups = 32
	out := benchFile{
		Schema: "wbist-bench-model/v1",
		Config: map[string]any{
			"lg": lg, "seed": cfg.Seed, "workers": 1,
			"max_fault_groups": maxGroups, "models": wbist.FaultModelNames(),
		},
	}
	only := map[string]bool{}
	if *flagCircuits != "" {
		for _, name := range strings.Split(*flagCircuits, ",") {
			only[strings.TrimSpace(name)] = true
		}
	}
	names := append([]string{"s27"}, wbist.Table6Names()...)
	for _, name := range names {
		if *flagSkipLarge && (name == "s5378" || name == "s35932") {
			continue
		}
		if len(only) > 0 && !only[name] {
			continue
		}
		c, err := wbist.LoadCircuit(name)
		if err != nil {
			return err
		}
		seq := weightedWorkload(c.NumInputs(), cfg.Seed, lg)
		init := expt.InitFor(name)
		s := fsim.New(c)
		cb := circuitBench{Circuit: name, Gates: c.NumGates()}
		for _, model := range wbist.FaultModelNames() {
			faults, err := wbist.FaultsFor(c, model)
			if err != nil {
				return err
			}
			if len(faults) > maxGroups*63 {
				faults = faults[:maxGroups*63]
			}
			if len(faults) == 0 {
				continue
			}
			// One calibration pass per kernel collects the (deterministic)
			// counters and sizes the timed batches; the timed repetitions are
			// interleaved so clock or load drift hits both kernels equally,
			// and each keeps its fastest repetition.
			calibrate := func(k wbist.Kernel) (kernelStats, int, int64) {
				opts := fsim.Options{Init: init, Workers: 1, Kernel: k}
				s.Run(seq, faults, opts) // warm-up run, untimed
				before := wbist.Counters()
				t0 := time.Now()
				o := s.Run(seq, faults, opts)
				wall := time.Since(t0).Nanoseconds()
				d := wbist.Counters().Sub(before).Map()
				st := kernelStats{WallNS: wall, GateEvals: d["fsim.gate_evals"], Vectors: d["fsim.vectors"]}
				iters := int64(1)
				if wall > 0 && wall < 8e6 {
					iters = 8e6/wall + 1
				}
				return st, o.NumDetected, iters
			}
			timed := func(k wbist.Kernel, iters int64) int64 {
				opts := fsim.Options{Init: init, Workers: 1, Kernel: k}
				t0 := time.Now()
				for i := int64(0); i < iters; i++ {
					s.Run(seq, faults, opts)
				}
				return time.Since(t0).Nanoseconds() / iters
			}
			dense, denseDet, denseIters := calibrate(wbist.KernelDense)
			event, eventDet, eventIters := calibrate(wbist.KernelEvent)
			if denseDet != eventDet {
				return fmt.Errorf("modelbench: %s %s: dense detected %d, event detected %d (kernels must be bit-identical)",
					name, model, denseDet, eventDet)
			}
			for rep := 0; rep < 5; rep++ {
				if w := timed(wbist.KernelDense, denseIters); w < dense.WallNS {
					dense.WallNS = w
				}
				if w := timed(wbist.KernelEvent, eventIters); w < event.WallNS {
					event.WallNS = w
				}
			}
			ms := modelStats{Model: model, Faults: len(faults), Detected: denseDet, Dense: dense, Event: event}
			if event.WallNS > 0 {
				ms.Speedup = float64(dense.WallNS) / float64(event.WallNS)
			}
			if len(cb.Models) > 0 && cb.Models[0].Dense.WallNS > 0 {
				ms.OverheadVsStuckAt = float64(dense.WallNS) / float64(cb.Models[0].Dense.WallNS)
			} else if len(cb.Models) == 0 {
				ms.OverheadVsStuckAt = 1
			}
			cb.Models = append(cb.Models, ms)
			fmt.Fprintf(os.Stderr, "modelbench: %s %s det %d/%d, dense/event %.2fx, vs stuck-at %.2fx\n",
				name, model, denseDet, len(faults), ms.Speedup, ms.OverheadVsStuckAt)
		}
		out.Circuits = append(out.Circuits, cb)
	}
	f, err := os.Create(*flagModelJSON)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("modelbench: wrote %d circuit(s) to %s\n", len(out.Circuits), *flagModelJSON)
	return nil
}

func mustS27Sequence() string { return wbist.S27TestSequenceText }
