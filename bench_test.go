// Benchmarks that regenerate every table and figure of the paper (see
// DESIGN.md for the experiment index). Each BenchmarkTableN_* target runs
// the code that produces the corresponding published table; the Ablation*
// targets measure the design choices called out in DESIGN.md; the Baseline*
// targets run the comparison methods.
//
// Heavy whole-pipeline benchmarks run the pipeline once per iteration
// without memoization (expt caching is bypassed via RunPipeline), so a
// default `go test -bench=.` executes each roughly once.
package wbist

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/lfsr"
	"repro/internal/obs"
	"repro/internal/scoap"
	"repro/internal/sim"
	"repro/internal/threeweight"
	"repro/internal/wgen"
)

// --- Table 1: the deterministic test sequence for s27 ---

func BenchmarkTable1_S27FaultSimulation(b *testing.B) {
	c := iscas.MustLoad("s27")
	seq, err := sim.ParseSequence(iscas.S27TestSequence)
	if err != nil {
		b.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := fsim.Run(c, seq, faults, fsim.Options{Init: X})
		if out.NumDetected != len(faults) {
			b.Fatalf("Table 1 sequence detected %d of %d", out.NumDetected, len(faults))
		}
	}
}

// --- Table 2: the weighted sequence of the Section 2 example ---

func BenchmarkTable2_WeightedSequenceGeneration(b *testing.B) {
	a := Assignment{Subs: []string{"01", "0", "100", "1"}}
	want := "0011"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seq := a.GenSequence(2000)
		if seq.Len() != 2000 {
			b.Fatal("wrong length")
		}
		got := ""
		for k := 0; k < 4; k++ {
			got += seq.At(0, k).String()
		}
		if got != want {
			b.Fatalf("first vector %s, want %s", got, want)
		}
	}
}

// --- Table 3: the shared weight FSM ---

func BenchmarkTable3_FSMSynthesis(b *testing.B) {
	subs := []string{"00010", "01011", "11001"}
	for i := 0; i < b.N; i++ {
		c, fsm, err := wgen.SynthesizeFSM("table3", subs)
		if err != nil {
			b.Fatal(err)
		}
		if fsm.StateBits != 3 {
			b.Fatal("wrong state bits")
		}
		// Verify one full period by simulation.
		s := sim.New(c, Zero)
		for u := 0; u < 5; u++ {
			out := s.Step([]Value{One})
			for k, alpha := range subs {
				if out[k].String() != string(alpha[u]) {
					b.Fatalf("t=%d z%d mismatch", u, k)
				}
			}
		}
	}
}

// --- Table 4: weight-set construction for s27 ---

func BenchmarkTable4_WeightSelection(b *testing.B) {
	c := iscas.MustLoad("s27")
	seq, _ := sim.ParseSequence(iscas.S27TestSequence)
	faults := fault.CollapsedUniverse(c)
	out := fsim.Run(c, seq, faults, fsim.Options{Init: X})
	var targets []Fault
	var detTime []int
	for i := range faults {
		if out.Detected[i] {
			targets = append(targets, faults[i])
			detTime = append(detTime, out.DetTime[i])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.Run(c, seq, targets, detTime, core.Options{LG: 100, Init: X, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		if r.S.Len() == 0 {
			b.Fatal("empty weight set")
		}
	}
}

// --- Table 5: the sets A_i ---

func BenchmarkTable5_BuildAi(b *testing.B) {
	seq, _ := sim.ParseSequence(iscas.S27TestSequence)
	s := []string{"0", "1", "00", "10", "01", "11",
		"000", "100", "010", "110", "001", "101", "011", "111"}
	proj := make([][]Value, 4)
	for i := range proj {
		proj[i] = seq.Input(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; k++ {
			ai := core.BuildAi(s, proj[k], 9, 3)
			if len(ai) != 3 {
				b.Fatalf("A_%d has %d entries", k, len(ai))
			}
		}
	}
}

// --- Table 6: the main experimental results, one benchmark per circuit ---

func benchTable6(b *testing.B, name string) {
	b.Helper()
	c := iscas.MustLoad(name)
	init := expt.InitFor(name)
	cfg := Config{Seed: 1}
	if name == "s5378" {
		cfg.ATPGRandomLen = 1024
		cfg.ATPGNoCompaction = true
	}
	if name == "s35932" {
		cfg.ATPGRandomLen = 320
		cfg.LG = 400
		cfg.ATPGNoCompaction = true
		cfg.ATPGNoPodem = true
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := expt.RunPipeline(c, init, cfg)
		if err != nil {
			b.Fatal(err)
		}
		row := expt.Table6(r)
		if row.Coverage != 1.0 {
			b.Fatalf("%s: coverage %.3f", name, row.Coverage)
		}
		if i == 0 {
			b.ReportMetric(float64(row.Len), "T_len")
			b.ReportMetric(float64(row.Det), "det")
			b.ReportMetric(float64(row.Seq), "seqs")
			b.ReportMetric(float64(row.Subs), "subs")
			b.ReportMetric(float64(row.MaxLen), "maxlen")
			b.ReportMetric(float64(row.FSMs), "fsms")
			b.ReportMetric(float64(row.Outputs), "fsm_outs")
		}
	}
}

func BenchmarkTable6_s27(b *testing.B)   { benchTable6(b, "s27") }
func BenchmarkTable6_s208(b *testing.B)  { benchTable6(b, "s208") }
func BenchmarkTable6_s298(b *testing.B)  { benchTable6(b, "s298") }
func BenchmarkTable6_s344(b *testing.B)  { benchTable6(b, "s344") }
func BenchmarkTable6_s382(b *testing.B)  { benchTable6(b, "s382") }
func BenchmarkTable6_s386(b *testing.B)  { benchTable6(b, "s386") }
func BenchmarkTable6_s400(b *testing.B)  { benchTable6(b, "s400") }
func BenchmarkTable6_s420(b *testing.B)  { benchTable6(b, "s420") }
func BenchmarkTable6_s444(b *testing.B)  { benchTable6(b, "s444") }
func BenchmarkTable6_s526(b *testing.B)  { benchTable6(b, "s526") }
func BenchmarkTable6_s641(b *testing.B)  { benchTable6(b, "s641") }
func BenchmarkTable6_s820(b *testing.B)  { benchTable6(b, "s820") }
func BenchmarkTable6_s1196(b *testing.B) { benchTable6(b, "s1196") }
func BenchmarkTable6_s1423(b *testing.B) { benchTable6(b, "s1423") }
func BenchmarkTable6_s1488(b *testing.B) { benchTable6(b, "s1488") }

func BenchmarkTable6_s5378(b *testing.B) {
	if testing.Short() {
		b.Skip("large circuit; skipped in -short mode")
	}
	benchTable6(b, "s5378")
}

func BenchmarkTable6_s35932(b *testing.B) {
	if testing.Short() {
		b.Skip("large circuit; skipped in -short mode")
	}
	benchTable6(b, "s35932")
}

// --- Tables 7-16: observation point insertion, one benchmark per table ---

func benchObsTable(b *testing.B, name string) {
	b.Helper()
	// The pipeline run is shared setup (memoized); the benchmark measures
	// the Section 5 experiment itself.
	r, err := expt.RunCircuit(name, Config{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := obs.Experiment(r.Core, 1, nil)
		if len(res.Rows) == 0 {
			b.Fatal("no rows")
		}
		last := res.Rows[len(res.Rows)-1]
		if last.FE != 100 || last.Obs != 0 {
			b.Fatalf("%s: last row %+v", name, last)
		}
		if i == 0 {
			b.ReportMetric(float64(len(res.Rows)), "rows")
			b.ReportMetric(res.Rows[0].FEObs, "fe_first_row")
		}
	}
}

func BenchmarkTable7_s208(b *testing.B)   { benchObsTable(b, "s208") }
func BenchmarkTable8_s298(b *testing.B)   { benchObsTable(b, "s298") }
func BenchmarkTable9_s344(b *testing.B)   { benchObsTable(b, "s344") }
func BenchmarkTable10_s386(b *testing.B)  { benchObsTable(b, "s386") }
func BenchmarkTable11_s400(b *testing.B)  { benchObsTable(b, "s400") }
func BenchmarkTable12_s420(b *testing.B)  { benchObsTable(b, "s420") }
func BenchmarkTable13_s526(b *testing.B)  { benchObsTable(b, "s526") }
func BenchmarkTable14_s641(b *testing.B)  { benchObsTable(b, "s641") }
func BenchmarkTable15_s1423(b *testing.B) { benchObsTable(b, "s1423") }

func BenchmarkTable16_s5378(b *testing.B) {
	if testing.Short() {
		b.Skip("large circuit; skipped in -short mode")
	}
	benchObsTable(b, "s5378")
}

// --- Figure 1: the synthesized test generator ---

func BenchmarkFigure1_GeneratorSynthesis(b *testing.B) {
	r, err := expt.RunCircuit("s298", Config{LG: 300, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := wgen.Synthesize("bench_gen", r.Compacted, r.Core.WindowLen())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(g.NumGates), "gates")
			b.ReportMetric(float64(g.NumDFFs), "dffs")
		}
	}
}

func BenchmarkFigure1_GeneratorVerification(b *testing.B) {
	r, err := expt.RunCircuit("s298", Config{LG: 300, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	g, err := wgen.Synthesize("bench_gen", r.Compacted, r.Core.WindowLen())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sim.New(g.Circuit, Zero)
		for _, a := range r.Compacted {
			want := a.GenSequence(g.LG)
			for u := 0; u < g.LG; u++ {
				out := s.Step([]Value{One})
				for k := range out {
					if out[k] != want.At(u, k) {
						b.Fatal("generator mismatch")
					}
				}
			}
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ---

func benchAblation(b *testing.B, cfg Config) {
	b.Helper()
	c := iscas.MustLoad("s344")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := expt.RunPipeline(c, Zero, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			row := expt.Table6(r)
			b.ReportMetric(float64(row.Seq), "seqs")
			b.ReportMetric(float64(row.Subs), "subs")
			b.ReportMetric(100*row.Coverage, "coverage_pct")
			b.ReportMetric(float64(r.Core.SimulatedSequences), "cand_sims")
		}
	}
}

func BenchmarkAblationBase(b *testing.B) {
	benchAblation(b, Config{LG: 500, Seed: 1})
}

func BenchmarkAblationNoMatchOrdering(b *testing.B) {
	benchAblation(b, Config{LG: 500, Seed: 1, NoMatchOrdering: true})
}

func BenchmarkAblationNoForceFullLength(b *testing.B) {
	benchAblation(b, Config{LG: 500, Seed: 1, NoForceFullLength: true})
}

func BenchmarkAblationNoSampleFirst(b *testing.B) {
	benchAblation(b, Config{LG: 500, Seed: 1, NoSampleFirst: true})
}

func BenchmarkAblationReverseOrderSim(b *testing.B) {
	// Measures the Section 4.3 postprocessing alone and reports how many
	// assignments it removes.
	r, err := expt.RunCircuit("s344", Config{LG: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		compacted := core.ReverseOrderCompact(r.Core, 1)
		if i == 0 {
			b.ReportMetric(float64(len(r.Core.Omega)), "before")
			b.ReportMetric(float64(len(compacted)), "after")
		}
	}
}

func BenchmarkAblationRandomWindows(b *testing.B) {
	// The paper's future-work extension: two LFSR windows before weight
	// selection. The reported metrics show the subsequence count dropping
	// relative to BenchmarkAblationBase.
	benchAblation(b, Config{LG: 500, Seed: 1, RandomWindows: 2})
}

func benchAblationLG(b *testing.B, lg int) {
	b.Helper()
	benchAblation(b, Config{LG: lg, Seed: 1})
}

func BenchmarkAblationLG250(b *testing.B)  { benchAblationLG(b, 250) }
func BenchmarkAblationLG500(b *testing.B)  { benchAblationLG(b, 500) }
func BenchmarkAblationLG1000(b *testing.B) { benchAblationLG(b, 1000) }
func BenchmarkAblationLG2000(b *testing.B) { benchAblationLG(b, 2000) }

func BenchmarkAblationObsCoverGreedyVsSCOAP(b *testing.B) {
	// Compares the paper's greedy covering procedure against the SCOAP
	// hardest-to-observe ranking: same fault efficiency, more points.
	r, err := expt.RunCircuit("s344", Config{LG: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	m := scoap.Analyze(r.Circuit, r.Init)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		greedy := obs.Experiment(r.Core, 1, nil)
		ranked := obs.ExperimentWithCover(r.Core, obs.NewRankedCover(m.CO), 1, nil)
		if i == 0 && len(greedy.Rows) > 0 && len(ranked.Rows) > 0 {
			b.ReportMetric(float64(greedy.Rows[0].Obs), "greedy_obs")
			b.ReportMetric(float64(ranked.Rows[0].Obs), "scoap_obs")
		}
	}
}

// --- Baselines ---

func BenchmarkBaselineLFSR(b *testing.B) {
	r, err := expt.RunCircuit("s344", Config{LG: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	budget := r.Core.WindowLen() * len(r.Compacted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := lfsr.New(23, 0xBEEF)
		if err != nil {
			b.Fatal(err)
		}
		seq := src.Sequence(r.Circuit.NumInputs(), budget)
		out := fsim.Run(r.Circuit, seq, r.Targets, fsim.Options{Init: r.Init})
		if i == 0 {
			b.ReportMetric(100*float64(out.NumDetected)/float64(len(r.Targets)), "coverage_pct")
		}
	}
}

func BenchmarkBaselineThreeWeight(b *testing.B) {
	r, err := expt.RunCircuit("s344", Config{LG: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	budget := r.Core.WindowLen() * len(r.Compacted)
	as, err := threeweight.Derive(r.T, r.DetTimes, 8, len(r.Compacted))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := threeweight.Evaluate(r.Circuit, as, r.Targets, budget/len(as), r.Init, 0xACE1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*res.Coverage(len(r.Targets)), "coverage_pct")
		}
	}
}

func BenchmarkBaselineCrossoverHardCircuit(b *testing.B) {
	// The random-pattern-resistant cmphard circuit: the proposed method
	// reaches 100% of T's coverage by construction while LFSR testing with
	// the same budget misses the comparator cone (the crossover the paper's
	// introduction motivates).
	r, err := expt.RunCircuit(iscas.HardName, Config{LG: 500, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	budget := r.Core.WindowLen() * len(r.Compacted)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := lfsr.New(23, 0xBEEF)
		if err != nil {
			b.Fatal(err)
		}
		seq := src.Sequence(r.Circuit.NumInputs(), budget)
		out := fsim.Run(r.Circuit, seq, r.Targets, fsim.Options{Init: r.Init})
		if i == 0 {
			prop := expt.Table6(r).Coverage
			lf := float64(out.NumDetected) / float64(len(r.Targets))
			b.ReportMetric(100*prop, "proposed_pct")
			b.ReportMetric(100*lf, "lfsr_pct")
			if prop <= lf {
				b.Fatalf("crossover vanished: proposed %.1f%% vs lfsr %.1f%%", 100*prop, 100*lf)
			}
		}
	}
}

// --- Kernel microbenchmarks (simulation throughput) ---

func BenchmarkKernelFaultSimulation_s1423(b *testing.B) {
	c := iscas.MustLoad("s1423")
	faults := fault.CollapsedUniverse(c)
	seq := Assignment{Subs: subsFor(c.NumInputs())}.GenSequence(500)
	s := fsim.New(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(seq, faults, fsim.Options{Init: Zero})
	}
	b.ReportMetric(float64(len(faults)), "faults")
}

// BenchmarkKernelFaultSimulationParallel_s1423 is the before/after entry for
// the parallel fault-group fan-out: the same run as the sequential kernel
// benchmark, sharded over GOMAXPROCS workers (bit-identical outcome). On a
// single-core runner it degenerates to the sequential path.
func BenchmarkKernelFaultSimulationParallel_s1423(b *testing.B) {
	c := iscas.MustLoad("s1423")
	faults := fault.CollapsedUniverse(c)
	seq := Assignment{Subs: subsFor(c.NumInputs())}.GenSequence(500)
	s := fsim.New(c)
	workers := runtime.GOMAXPROCS(0)
	b.ReportMetric(float64(workers), "workers")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(seq, faults, fsim.Options{Init: Zero, Workers: workers})
	}
	b.ReportMetric(float64(len(faults)), "faults")
}

func BenchmarkKernelLogicSimulation_s1423(b *testing.B) {
	c := iscas.MustLoad("s1423")
	seq := Assignment{Subs: subsFor(c.NumInputs())}.GenSequence(500)
	s := sim.New(c, Zero)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(seq)
	}
}

func subsFor(n int) []string {
	pool := []string{"01", "100", "1", "0", "110", "0010"}
	out := make([]string, n)
	for i := range out {
		out[i] = pool[i%len(pool)]
	}
	return out
}

var _ = fmt.Sprintf
