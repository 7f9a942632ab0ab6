// Command experiments regenerates every table and figure of the paper and
// prints them in order. It is the tool behind EXPERIMENTS.md.
//
//	experiments [-skip-large] [-lg N] [-seed N] [-workers N] [section ...]
//
// Sections: table1 table2 table3 table4 table5 table6 obs figure1 baselines
// random models selftest (default: all). -skip-large omits s5378 and s35932
// from table6 and s5378 from the observation-point tables. -workers shards
// fault simulation over N goroutines (default GOMAXPROCS; every result is
// bit-identical for any value). The models section compiles two suite
// circuits once per fault model and prints per-model fault counts and
// coverage columns; -fault-model switches the fault
// universe the other pipeline sections target. -progress streams per-phase
// telemetry to stderr, -metrics exports completed spans as JSON lines, and
// -pprof serves pprof, expvar and the Prometheus /metrics exposition while
// the run lasts. Performance is measured elsewhere: `bash benchmark/run.sh`
// times the pipeline end to end, and `go test -bench Kernel ./internal/fsim`
// compares the kernels.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/lfsr"
	"repro/internal/sim"
	"repro/internal/tables"
	"repro/internal/threeweight"
)

var (
	flagSkipLarge = flag.Bool("skip-large", false, "skip s5378 and s35932")
	flagLG        = flag.Int("lg", 0, "per-assignment sequence length (0 = default)")
	flagSeed      = flag.Uint64("seed", 1, "master seed")
	flagWorkers   = flag.Int("workers", runtime.GOMAXPROCS(0), "fault-simulation worker goroutines (results are identical for any value)")
	flagModel     = flag.String("fault-model", "", "fault model for the pipeline sections: stuck-at (default), transition or bridge (part of the run's identity)")
	flagProgress  = flag.Bool("progress", false, "print per-phase telemetry progress to stderr")
	flagMetrics   = flag.String("metrics", "", "write telemetry span events to this file as JSON lines")
	flagPprof     = flag.String("pprof", "", "serve net/http/pprof, expvar and Prometheus /metrics on this address")
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
	cfg := wbist.Config{LG: *flagLG, Seed: *flagSeed, Workers: *flagWorkers, FaultModel: *flagModel}
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
		res := wbist.ObsExperiment(r, cfg)
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
		// Equal pattern budget for the baselines: the weighted session's
		// length.
		budget := r.Core.WindowLen() * len(r.Compacted)
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
	fmt.Println("(2 LFSR windows, each as long as a weight assignment's window; base = paper configuration)")
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
	rep, err := wbist.RunBISTSession(run, 16, cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Self-test (s298, continuous session, 16-bit MISR):\n")
	fmt.Printf("session: %d cycles, golden signature %04x\n", rep.SessionLength, rep.GoldenSignature)
	fmt.Printf("targets: %d; by compare: %d; by signature: %d; aliased: %d; tainted: %d\n",
		len(rep.ByCompare), rep.NumByCompare, rep.NumBySignature, rep.Aliased, rep.Tainted)
	return nil
}

func mustS27Sequence() string { return wbist.S27TestSequenceText }
