package fsim_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/ref"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenRecord is the pinned observable outcome of one fault-simulation
// workload: total fault coverage plus the full detection-time histogram.
// Any simulator change that shifts a single fault's detection or its
// detection time shows up here.
type goldenRecord struct {
	Circuit string `json:"circuit"`
	// Model names the fault model of the pin; empty for the legacy stuck-at
	// records (kept byte-identical across the FaultModel refactor).
	Model       string         `json:"model,omitempty"`
	Sequence    string         `json:"sequence"`
	Faults      int            `json:"faults"`
	Detected    int            `json:"detected"`
	DetTimeHist map[string]int `json:"det_time_histogram"`
}

// goldenCase is one pinned workload.
type goldenCase struct {
	name    string
	circuit string
	seqDesc string
	seq     *sim.Sequence
	init    logic.V
	model   fault.Model // nil = stuck-at (the legacy pins)
}

// universeOf is the pinned workload's collapsed fault universe.
func universeOf(c *circuit.Circuit, m fault.Model) []fault.Fault {
	if m == nil {
		m = fault.StuckAt{}
	}
	return fault.CollapsedUniverseFor(c, m)
}

// goldenCases are the pinned workloads:
//
//   - s27-table1: the real s27 under the paper's Table 1 deterministic test
//     sequence (iscas.S27TestSequence) — the histogram is the per-time-unit
//     detection profile of that table.
//   - s27-weighted: s27 under the weighted sequence T_G of the paper's
//     Section 2 example assignment (01, 0, 100, 1) — the weighted-sequence
//     coverage the Figure 1 generator is built to deliver.
//   - s298-random / s344-random: suite circuits under fixed random binary
//     stimulus, full collapsed fault universe.
//   - *-transition / *-bridge: the same circuits and sequences under the
//     launch-on-capture transition model and the 2-node bridging model (full
//     collapsed universes), pinning the kernel's non-stuck-at injection
//     paths.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	table1, err := sim.ParseSequence(iscas.S27TestSequence)
	if err != nil {
		t.Fatalf("parse S27TestSequence: %v", err)
	}
	weighted := core.Assignment{Subs: []string{"01", "0", "100", "1"}}.GenSequence(64)
	rand298 := sim.RandomSequence(randutil.New(298), 3, 128)
	rand344 := sim.RandomSequence(randutil.New(344), 9, 128)
	return []goldenCase{
		{"s27-table1", "s27", "paper Table 1 deterministic sequence", table1, logic.X, nil},
		{"s27-weighted", "s27", "T_G of assignment (01, 0, 100, 1), l_G=64", weighted, logic.X, nil},
		{"s298-random", "s298", "random binary, seed 298, length 128", rand298, logic.Zero, nil},
		{"s344-random", "s344", "random binary, seed 344, length 128", rand344, logic.Zero, nil},
		{"s27-transition", "s27", "paper Table 1 deterministic sequence", table1, logic.X, fault.Transition{}},
		{"s298-transition", "s298", "random binary, seed 298, length 128", rand298, logic.Zero, fault.Transition{}},
		{"s344-transition", "s344", "random binary, seed 344, length 128", rand344, logic.Zero, fault.Transition{}},
		{"s27-bridge", "s27", "paper Table 1 deterministic sequence", table1, logic.X, fault.Bridging{}},
		{"s298-bridge", "s298", "random binary, seed 298, length 128", rand298, logic.Zero, fault.Bridging{}},
		{"s344-bridge", "s344", "random binary, seed 344, length 128", rand344, logic.Zero, fault.Bridging{}},
	}
}

// TestGoldenOutcomes locks the simulator's observable outcomes against the
// committed golden files: the record is the ref oracle's, and fsim must
// reproduce it at both worker counts and at every lane width. Run with
// -update to rewrite the files after an intentional behaviour change.
func TestGoldenOutcomes(t *testing.T) {
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			c := iscas.MustLoad(tc.circuit)
			faults := universeOf(c, tc.model)

			want := ref.Run(c, tc.seq, faults, ref.Options{Init: tc.init})
			// The lane width is outcome-invariant; pin the golden record at
			// the automatic width and at explicit ones (1 = single-group
			// batches, 2/8 = multi-group with tail batches).
			for _, lanes := range []int{0, 1, 2, 8} {
				for _, workers := range []int{1, 4} {
					out := fsim.Run(c, tc.seq, faults, fsim.Options{
						Init: tc.init, Workers: workers, SlabLanes: lanes,
					})
					if !reflect.DeepEqual(out.Detected, want.Detected) ||
						!reflect.DeepEqual(out.DetTime, want.DetTime) {
						t.Fatalf("SlabLanes=%d workers=%d: outcome differs from the ref oracle", lanes, workers)
					}
				}
			}

			got := recordOf(tc, len(faults), want.Detected, want.DetTime)

			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				data, err := json.MarshalIndent(got, "", "  ")
				if err != nil {
					t.Fatal(err)
				}
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if want := loadGolden(t, tc.name); !reflect.DeepEqual(got, want) {
				t.Errorf("outcome drifted from %s:\n got: %+v\nwant: %+v", path, got, want)
			}
		})
	}
}

// loadGolden reads one committed golden record from testdata/golden.
func loadGolden(t *testing.T, name string) goldenRecord {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name+".json"))
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	var want goldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("corrupt golden file %s: %v", name, err)
	}
	return want
}

// recordOf reduces an outcome to the golden observable (coverage plus the
// detection-time histogram) for comparison against a committed pin.
func recordOf(tc goldenCase, faults int, detected []bool, detTime []int) goldenRecord {
	got := goldenRecord{
		Circuit:     tc.circuit,
		Sequence:    tc.seqDesc,
		Faults:      faults,
		DetTimeHist: map[string]int{},
	}
	if tc.model != nil {
		got.Model = tc.model.Name()
	}
	for i, d := range detected {
		if d {
			got.Detected++
			got.DetTimeHist[fmt.Sprintf("%d", detTime[i])]++
		}
	}
	return got
}
