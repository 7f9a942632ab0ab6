package wbist

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestCircuitNameLists(t *testing.T) {
	names := CircuitNames()
	if len(names) != 17 || names[0] != "s27" {
		t.Fatalf("suite: %v", names)
	}
	if len(Table6Names()) != 16 {
		t.Fatal("Table 6 list wrong")
	}
	if len(ObsTableNames()) != 10 {
		t.Fatal("obs list wrong")
	}
}

func TestLoadParseWriteRoundTrip(t *testing.T) {
	c, err := LoadCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBench(&buf, c); err != nil {
		t.Fatal(err)
	}
	c2, err := ParseBench("rt", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if c2.NumGates() != c.NumGates() || c2.NumDFFs() != c.NumDFFs() {
		t.Fatal("round trip changed the circuit")
	}
}

func TestPublicEndToEndFlow(t *testing.T) {
	// The README quickstart flow, against the public API only.
	c, err := LoadCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	seq, err := sim.ParseSequence(S27TestSequenceText)
	if err != nil {
		t.Fatal(err)
	}
	faults := Faults(c)
	detected, detTime := Simulate(c, seq, faults, X)
	var targets []Fault
	var times []int
	for i := range faults {
		if detected[i] {
			targets = append(targets, faults[i])
			times = append(times, detTime[i])
		}
	}
	if len(targets) != len(faults) {
		t.Fatalf("Table 1 sequence should detect all of s27's faults, got %d/%d",
			len(targets), len(faults))
	}
	res, err := SelectWeights(c, seq, targets, times, 100, X)
	if err != nil {
		t.Fatal(err)
	}
	compacted := ReverseOrderCompact(res)
	if len(compacted) == 0 {
		t.Fatal("no assignments survived")
	}
	st := Accounting(compacted)
	if st.NumSeqs != len(compacted) || st.MaxLen == 0 {
		t.Fatalf("accounting wrong: %+v", st)
	}
	// The compacted assignments must reproduce T's coverage.
	covered := make([]bool, len(targets))
	for _, a := range compacted {
		det, _ := Simulate(c, a.GenSequence(100), targets, X)
		for i, d := range det {
			if d {
				covered[i] = true
			}
		}
	}
	for i, cv := range covered {
		if !cv {
			t.Errorf("fault %d not covered", i)
		}
	}
}

func TestGenerateTestSequencePublic(t *testing.T) {
	c, err := LoadCircuit("s298")
	if err != nil {
		t.Fatal(err)
	}
	seq, targets, times := GenerateTestSequence(c, Zero, 11)
	if seq.Len() == 0 || len(targets) == 0 || len(targets) != len(times) {
		t.Fatalf("degenerate output: len=%d targets=%d times=%d", seq.Len(), len(targets), len(times))
	}
	// Detection times must be valid and the sequence must actually detect
	// the targets.
	det, _ := Simulate(c, seq, targets, Zero)
	for i, d := range det {
		if !d {
			t.Fatalf("target %d not detected by its own sequence", i)
		}
		if times[i] < 0 || times[i] >= seq.Len() {
			t.Fatalf("target %d has detection time %d", i, times[i])
		}
	}
}

func TestRunCircuitAndSynthesizePublic(t *testing.T) {
	cfg := Config{LG: 100, Seed: 1}
	r, err := RunCircuit("s27", cfg)
	if err != nil {
		t.Fatal(err)
	}
	row := Table6(r)
	if row.Coverage != 1.0 {
		t.Fatalf("coverage %.3f", row.Coverage)
	}
	g, err := Synthesize(r)
	if err != nil {
		t.Fatal(err)
	}
	if g.Circuit.NumOutputs() != r.Circuit.NumInputs() {
		t.Fatal("generator output count mismatch")
	}
	res := ObsExperiment(r, cfg)
	if len(res.Rows) == 0 {
		t.Fatal("obs experiment empty")
	}
}

func TestSynthesizeFSMPublic(t *testing.T) {
	c, fsm, err := SynthesizeFSM("t3", []string{"00010", "01011", "11001"})
	if err != nil {
		t.Fatal(err)
	}
	if fsm.Len != 5 || c.NumOutputs() != 3 {
		t.Fatalf("fsm wrong: %+v", fsm)
	}
}

func TestFaultsForModels(t *testing.T) {
	c, err := LoadCircuit("s27")
	if err != nil {
		t.Fatal(err)
	}
	names := FaultModelNames()
	if len(names) != 3 || names[0] != "stuck-at" {
		t.Fatalf("model names: %v", names)
	}
	// "" is the stuck-at default and must match the legacy Faults helper.
	def, err := FaultsFor(c, "")
	if err != nil {
		t.Fatal(err)
	}
	if legacy := Faults(c); len(def) != len(legacy) {
		t.Fatalf("default universe %d faults, legacy %d", len(def), len(legacy))
	}
	for _, name := range names {
		u, err := FaultsFor(c, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(u) == 0 {
			t.Fatalf("%s: empty universe", name)
		}
	}
	if _, err := FaultsFor(c, "delay"); err == nil {
		t.Fatal("unknown model accepted")
	}
}
