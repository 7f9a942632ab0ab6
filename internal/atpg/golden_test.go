package atpg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/atpg"
	"repro/internal/expt"
	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/telemetry"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenRecord pins the observable outcome of one atpg.Generate call: the
// generated sequence T, its per-fault detection times, its coverage, and the
// PODEM backtracks the call consumed. Any change to the search, the
// compaction or the fault simulation underneath that moves a single vector,
// a single detection time or a single backtrack shows up here.
type goldenRecord struct {
	Circuit         string `json:"circuit"`
	Model           string `json:"model"`
	Seed            uint64 `json:"seed"`
	Init            string `json:"init"`
	SeqLen          int    `json:"seq_len"`
	SeqSHA256       string `json:"seq_sha256"`
	Faults          int    `json:"faults"`
	DetTimeSHA256   string `json:"det_time_sha256"`
	NumDetected     int    `json:"num_detected"`
	PodemBacktracks int64  `json:"podem_backtracks"`
}

// goldenCases are the pinned generator runs: the stuck-at pipeline's
// sequence for four suite circuits at the CLI's per-circuit initial state,
// plus s208 under the transition and bridge models (compaction only, no
// PODEM).
var goldenCases = []struct {
	circuit string
	model   fault.Model
}{
	{"s27", fault.StuckAt{}},
	{"s208", fault.StuckAt{}},
	{"s298", fault.StuckAt{}},
	{"s386", fault.StuckAt{}},
	{"s208", fault.Transition{}},
	{"s208", fault.Bridging{}},
}

func sha(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestGoldenGenerate locks atpg.Generate's output against the committed
// golden files. Run with -update to rewrite them after an intentional
// behaviour change.
func TestGoldenGenerate(t *testing.T) {
	for _, tc := range goldenCases {
		name := tc.circuit + "-" + tc.model.Name()
		t.Run(name, func(t *testing.T) {
			c := iscas.MustLoad(tc.circuit)
			init := expt.InitFor(tc.circuit)
			before := telemetry.Counters()
			r := atpg.Generate(c, atpg.Options{Seed: 1, Init: init, Model: tc.model, Workers: 1})
			bt := telemetry.Counters().Sub(before).Get(telemetry.CtrBacktracks)
			det, err := json.Marshal(r.DetTime)
			if err != nil {
				t.Fatal(err)
			}
			got := goldenRecord{
				Circuit:         tc.circuit,
				Model:           tc.model.Name(),
				Seed:            1,
				Init:            init.String(),
				SeqLen:          r.Seq.Len(),
				SeqSHA256:       sha(r.Seq.String()),
				Faults:          len(r.Faults),
				DetTimeSHA256:   sha(string(det)),
				NumDetected:     r.NumDetected,
				PodemBacktracks: bt,
			}
			path := filepath.Join("testdata", "golden", name+".json")
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
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update to create): %v", err)
			}
			var want goldenRecord
			if err := json.Unmarshal(data, &want); err != nil {
				t.Fatalf("corrupt golden file %s: %v", path, err)
			}
			if got != want {
				t.Errorf("Generate drifted from %s:\n got: %s\nwant: %s", path, fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want))
			}
		})
	}
}
