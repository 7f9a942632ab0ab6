package expt

import (
	"reflect"
	"testing"

	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/sim"
)

func TestRunCircuitS27(t *testing.T) {
	r, err := RunCircuit("s27", Config{LG: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Init != logic.X {
		t.Fatal("s27 must run with unknown initial state")
	}
	if r.T.Len() != 10 {
		t.Fatalf("s27 must use the paper's 10-vector sequence, got %d", r.T.Len())
	}
	if len(r.Targets) == 0 || len(r.Compacted) == 0 {
		t.Fatal("pipeline produced nothing")
	}
	row := Table6(r)
	if row.Circuit != "s27" || row.Len != 10 || row.Det != len(r.Targets) {
		t.Fatalf("Table6 row wrong: %+v", row)
	}
	if row.Coverage != 1.0 {
		t.Fatalf("coverage %.3f", row.Coverage)
	}
	if row.MaxLen >= row.Len {
		t.Errorf("max subsequence length %d should be < |T| = %d", row.MaxLen, row.Len)
	}
	if row.FSMs > row.Subs {
		t.Errorf("FSMs %d > subs %d", row.FSMs, row.Subs)
	}
}

// TestPipelineWorkersDeterminism runs the full pipeline sequentially and
// with a parallel fault-simulation fleet and requires identical results
// end to end: the simulator's deterministic merge must survive every stage
// (atpg, core selection, reverse-order compaction).
func TestPipelineWorkersDeterminism(t *testing.T) {
	c, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	seqR, err := RunPipeline(c, logic.Zero, Config{LG: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	parR, err := RunPipeline(c2, logic.Zero, Config{LG: 150, Seed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if seqR.T.String() != parR.T.String() {
		t.Fatal("deterministic sequences differ")
	}
	if !reflect.DeepEqual(seqR.Targets, parR.Targets) || !reflect.DeepEqual(seqR.DetTimes, parR.DetTimes) {
		t.Fatal("target faults or detection times differ")
	}
	if !reflect.DeepEqual(seqR.Core.Omega, parR.Core.Omega) {
		t.Fatal("selected weight assignments differ")
	}
	if !reflect.DeepEqual(seqR.Compacted, parR.Compacted) {
		t.Fatal("compacted assignments differ")
	}
	if seqR.Stats != parR.Stats {
		t.Fatalf("hardware stats differ: %+v vs %+v", seqR.Stats, parR.Stats)
	}
}

// TestWorkersNotPartOfMemoKey: runs differing only in Workers are
// bit-identical, so they must share one memoized computation.
func TestWorkersNotPartOfMemoKey(t *testing.T) {
	a, err := RunCircuit("s27", Config{LG: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCircuit("s27", Config{LG: 100, Seed: 1, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Workers leaked into the memoization key")
	}
}

func TestRunCircuitMemoized(t *testing.T) {
	a, err := RunCircuit("s27", Config{LG: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunCircuit("s27", Config{LG: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configs not memoized")
	}
	c, err := RunCircuit("s27", Config{LG: 99, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different configs shared a run")
	}
}

func TestRunCircuitUnknown(t *testing.T) {
	if _, err := RunCircuit("nope", Config{}); err == nil {
		t.Fatal("unknown circuit accepted")
	}
}

func TestPipelineSyntheticWithGenerator(t *testing.T) {
	r, err := RunCircuit("s298", Config{LG: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if r.Init != logic.Zero {
		t.Fatal("synthetic circuits must use reset-to-0")
	}
	if r.Core.Coverage() != 1.0 {
		t.Fatalf("procedure coverage %.3f", r.Core.Coverage())
	}
	// Verify the compacted omega covers all targets end to end.
	lg := r.Core.WindowLen()
	undet := make([]bool, len(r.Targets))
	for i := range undet {
		undet[i] = true
	}
	for _, a := range r.Compacted {
		out := fsim.Run(r.Circuit, a.GenSequence(lg), r.Targets, fsim.Options{Init: r.Init})
		for i := range r.Targets {
			if out.Detected[i] {
				undet[i] = false
			}
		}
	}
	for i, u := range undet {
		if u {
			t.Errorf("target %d not covered by compacted omega", i)
		}
	}
	// The Figure 1 generator must synthesize.
	g, err := SynthesizeGenerator(r)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumGates == 0 || g.Circuit.NumOutputs() != r.Circuit.NumInputs() {
		t.Fatalf("generator malformed: %d gates, %d outputs", g.NumGates, g.Circuit.NumOutputs())
	}
}

func TestObsExperimentIntegrates(t *testing.T) {
	cfg := Config{LG: 100, Seed: 1}
	r, err := RunCircuit("s27", cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := ObsExperiment(r, cfg)
	if len(res.Rows) == 0 {
		t.Fatal("no obs rows")
	}
	last := res.Rows[len(res.Rows)-1]
	if last.FE != 100 || last.Obs != 0 {
		t.Fatalf("last row %+v", last)
	}
}

// ClearCache drops all memoized runs, so the next call computes afresh.
func ClearCache() {
	cacheMu.Lock()
	cache = map[key]*entry{}
	cacheMu.Unlock()
}

func TestInitFor(t *testing.T) {
	if InitFor("s27") != logic.X {
		t.Error("s27 init")
	}
	if InitFor("s298") != logic.Zero {
		t.Error("synthetic init")
	}
	if InitFor("unknown") != logic.Zero {
		t.Error("unknown defaults to zero")
	}
}

func TestClearCache(t *testing.T) {
	a, _ := RunCircuit("s27", Config{LG: 100, Seed: 1})
	ClearCache()
	b, _ := RunCircuit("s27", Config{LG: 100, Seed: 1})
	if a == b {
		t.Fatal("cache not cleared")
	}
}

var _ = sim.NewSequence

func TestPresetsForLargeCircuits(t *testing.T) {
	p5378 := presetFor("s5378", Config{})
	if p5378.ATPGRandomLen != 1024 || !p5378.ATPGNoCompaction {
		t.Fatalf("s5378 preset wrong: %+v", p5378)
	}
	p35932 := presetFor("s35932", Config{})
	if p35932.ATPGRandomLen != 320 || p35932.LG != 400 || !p35932.ATPGNoCompaction {
		t.Fatalf("s35932 preset wrong: %+v", p35932)
	}
	// User-provided values win.
	custom := presetFor("s5378", Config{ATPGRandomLen: 99})
	if custom.ATPGRandomLen != 99 {
		t.Fatal("preset overrode explicit value")
	}
	// Other circuits untouched.
	plain := presetFor("s298", Config{})
	if plain.ATPGRandomLen != 0 || plain.LG != 0 {
		t.Fatalf("s298 got a preset: %+v", plain)
	}
}

func TestRunCircuitHardUsesPresetSequence(t *testing.T) {
	r, err := RunCircuit("cmphard", Config{LG: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The cmphard sequence is constructed, not searched: 4 + 18*(1+3) = 76.
	if r.T.Len() != 76 {
		t.Fatalf("cmphard |T| = %d, want 76", r.T.Len())
	}
	if r.Core.Coverage() != 1.0 {
		t.Fatalf("cmphard coverage %.3f", r.Core.Coverage())
	}
}

func TestConfigWithRandomWindows(t *testing.T) {
	r, err := RunCircuit("s298", Config{LG: 300, Seed: 3, RandomWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.Core.RandomDetected == 0 {
		t.Fatal("random window detected nothing")
	}
	g, err := SynthesizeGenerator(r)
	if err != nil {
		t.Fatal(err)
	}
	if g.RandomWindows != 1 || g.LFSRWidth == 0 {
		t.Fatalf("generator lacks the LFSR window: %+v", g)
	}
	if g.LG != r.Core.WindowLen() {
		t.Fatalf("generator windows are %d cycles, the procedure's %d", g.LG, r.Core.WindowLen())
	}
}

// TestConfigJSONTags: every Config field carries an explicit json tag, so
// each one is classified on purpose — a named tag puts it in a run's
// identity (the serve wire format, the store key, the memo key), "-" marks
// it as policy. A new field fails here until it is classified.
func TestConfigJSONTags(t *testing.T) {
	ct := reflect.TypeOf(Config{})
	for i := 0; i < ct.NumField(); i++ {
		f := ct.Field(i)
		if _, ok := f.Tag.Lookup("json"); !ok {
			t.Errorf("Config.%s has no json tag: decide whether it changes result bits", f.Name)
		}
	}
}

// TestConfigValidate: the caps of Validate admit every configuration the
// repository runs and its own maxima, and RunPipeline reports an
// out-of-range configuration as an error before any work — without the
// check, ATPGRandomLen -1 panics in atpg with an index out of range. The
// rejected values are enumerated by serve's TestSubmitValidation.
func TestConfigValidate(t *testing.T) {
	for _, ok := range []Config{
		{},
		{LG: 2000, ATPGRandomLen: 4096, RandomWindows: 2, FaultModel: "bridge"},
		{LG: maxLG, ATPGRandomLen: maxATPGRandomLen, RandomWindows: maxRandomWindows},
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("%+v: %v", ok, err)
		}
	}
	if _, err := RunPipeline(iscas.MustLoad("s298"), logic.Zero, Config{ATPGRandomLen: -1}); err == nil {
		t.Error("RunPipeline accepted ATPGRandomLen -1")
	}
}
