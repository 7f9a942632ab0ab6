package obsv

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

// hockeyTrace builds a RunTrace with a hockey-stick T curve (steep early
// detections, long flat tail) whose knee and percentile marks are computable
// by hand, plus one assignment segment.
func hockeyTrace() *RunTrace {
	rt := &RunTrace{
		Schema:      TraceSchema,
		Circuit:     "toy",
		Kernel:      "dense",
		TotalFaults: 20,
		Targets:     10,
		TLen:        100,
	}
	// 8 detections in vectors 0..3, then one at 50 and one at 100.
	tSeg := Segment{
		Assignment:   -1,
		Vectors:      100,
		Faults:       20,
		Detected:     10,
		Activity:     []int{3, 7, 5, 5},
		GroupVectors: []int{100, 40, 100, 60, 100, 100, 100},
	}
	for i, tm := range []int{0, 0, 1, 1, 2, 2, 3, 3, 50, 100} {
		tSeg.Events = append(tSeg.Events, Event{
			Fault: i, Time: tm, PO: i % 2, Group: i / 3, Assignment: -1,
		})
	}
	aSeg := Segment{
		Assignment: 0,
		Vectors:    30,
		Faults:     10,
		Detected:   2,
		Events: []Event{
			{Fault: 4, Time: 107, PO: 0, Group: 0, Assignment: 0},
			{Fault: 9, Time: 112, PO: 1, Group: 0, Assignment: 0},
		},
	}
	rt.Segments = []Segment{tSeg, aSeg}
	return rt
}

func TestBuildReportCurveAndStats(t *testing.T) {
	rt := hockeyTrace()
	rep := BuildReport(rt, nil)
	if rep.Schema != ReportSchema || rep.Circuit != "toy" || rep.Kernel != "dense" {
		t.Errorf("header = %q/%q/%q", rep.Schema, rep.Circuit, rep.Kernel)
	}
	if rep.TotalFaults != 20 || rep.Targets != 10 || rep.TLen != 100 {
		t.Errorf("sizes = %d/%d/%d", rep.TotalFaults, rep.Targets, rep.TLen)
	}
	// Curve: cumulative (0,2) (1,4) (2,6) (3,8) (50,9) (100,10).
	wantCurve := []CurvePoint{
		{0, 2, 0.1}, {1, 4, 0.2}, {2, 6, 0.3}, {3, 8, 0.4}, {50, 9, 0.45}, {100, 10, 0.5},
	}
	if !reflect.DeepEqual(rep.Curve, wantCurve) {
		t.Errorf("curve = %+v, want %+v", rep.Curve, wantCurve)
	}
	cs := rep.Coverage
	if cs.Detected != 10 || math.Abs(cs.Fraction-0.5) > 1e-12 {
		t.Errorf("coverage = %d (%.3f)", cs.Detected, cs.Fraction)
	}
	// The chord runs (0,2)→(100,10); vector 3 (8 detected) is farthest above.
	if cs.Knee.Vector != 3 || cs.Knee.Detected != 8 {
		t.Errorf("knee = %+v", cs.Knee)
	}
	// Percentile marks: ceil(q*10) detections — 5→t=2, 9→t=50, 10→t=100.
	if cs.T50 != 2 || cs.T90 != 50 || cs.T95 != 100 || cs.T99 != 100 {
		t.Errorf("marks = %d/%d/%d/%d", cs.T50, cs.T90, cs.T95, cs.T99)
	}
	// Slow groups: descending vectors, ascending group on ties, capped at 5.
	wantSlow := []GroupCost{{0, 100}, {2, 100}, {4, 100}, {5, 100}, {6, 100}}
	if !reflect.DeepEqual(rep.SlowGroups, wantSlow) {
		t.Errorf("slow groups = %+v, want %+v", rep.SlowGroups, wantSlow)
	}
	if rep.PeakActivity != 7 || math.Abs(rep.MeanActivity-5) > 1e-12 {
		t.Errorf("activity = %d / %.2f", rep.PeakActivity, rep.MeanActivity)
	}
	// Attribution: T first with its detection span, then A0.
	if len(rep.Assignments) != 2 {
		t.Fatalf("got %d assignment reports", len(rep.Assignments))
	}
	if a := rep.Assignments[0]; a.Assignment != -1 || a.FirstDet != 0 || a.LastDet != 100 {
		t.Errorf("T attribution = %+v", a)
	}
	if a := rep.Assignments[1]; a.Assignment != 0 || a.FirstDet != 107 || a.LastDet != 112 || a.Detected != 2 {
		t.Errorf("A0 attribution = %+v", a)
	}
}

func TestBuildReportEmptyInputs(t *testing.T) {
	rep := BuildReport(nil, nil)
	if rep.Schema != ReportSchema || len(rep.Curve) != 0 || len(rep.Assignments) != 0 {
		t.Errorf("empty report = %+v", rep)
	}
	if cs := rep.Coverage; cs.T50 != 0 || cs.Detected != 0 {
		// BuildReport with no T segment leaves Coverage zero-valued.
		t.Errorf("coverage of empty report = %+v", cs)
	}
	// A segment with no events reports -1 detection bounds.
	rt := &RunTrace{Segments: []Segment{{Assignment: 0, Vectors: 5}}}
	rep = BuildReport(rt, nil)
	if a := rep.Assignments[0]; a.FirstDet != -1 || a.LastDet != -1 {
		t.Errorf("empty segment attribution = %+v", a)
	}
	if cs := coverageStats(nil); cs.T50 != -1 || cs.T99 != -1 {
		t.Errorf("stats of empty curve = %+v", cs)
	}
}

func TestBuildReportPhases(t *testing.T) {
	phases := []telemetry.PhaseStats{
		{Span: "pipeline/atpg", Count: 1, WallNS: 2_000_000_000, AllocBytes: 2 << 20,
			Counters: map[string]int64{"fsim.gate_evals": 100}},
		{Span: "pipeline/core", Count: 3, WallNS: 500_000_000,
			Counters: map[string]int64{"fsim.gate_evals": 50, "fsim.vectors": 7}},
	}
	rep := BuildReport(nil, phases)
	if len(rep.Phases) != 2 {
		t.Fatalf("got %d phases", len(rep.Phases))
	}
	if p := rep.Phases[0]; p.Span != "pipeline/atpg" || p.WallSeconds != 2 || p.AllocMB != 2 {
		t.Errorf("phase 0 = %+v", p)
	}
	if rep.KernelCounters["fsim.gate_evals"] != 150 || rep.KernelCounters["fsim.vectors"] != 7 {
		t.Errorf("kernel counters = %v", rep.KernelCounters)
	}
}

// TestBuildReportNestedPhases: phases nest (pipeline ⊃ pipeline/atpg ⊃
// pipeline/atpg/random), so the kernel counters come from the root spans
// only; two roots (two runs folded from one metrics file) still add up.
func TestBuildReportNestedPhases(t *testing.T) {
	vectors := func(n int64) map[string]int64 { return map[string]int64{"fsim.vectors": n} }
	phases := []telemetry.PhaseStats{
		{Span: "pipeline/atpg/random", Count: 2, Counters: vectors(4)},
		{Span: "pipeline/atpg", Count: 2, Counters: vectors(6)},
		{Span: "pipeline/core/selection", Count: 2, Counters: vectors(3)},
		{Span: "pipeline", Count: 2, Counters: vectors(10)},
		{Span: "bist-session", Count: 1, Counters: vectors(5)},
	}
	rep := BuildReport(nil, phases)
	if len(rep.Phases) != len(phases) {
		t.Fatalf("got %d phases, want %d", len(rep.Phases), len(phases))
	}
	if got := rep.KernelCounters["fsim.vectors"]; got != 15 {
		t.Errorf("fsim.vectors = %d, want 15 (pipeline + bist-session)", got)
	}
}

func TestRenderReport(t *testing.T) {
	rt := hockeyTrace()
	phases := []telemetry.PhaseStats{{Span: "pipeline", Count: 1, WallNS: 1e9,
		Counters: map[string]int64{"fsim.vectors": 130}}}
	var buf bytes.Buffer
	Render(&buf, BuildReport(rt, phases))
	out := buf.String()
	for _, want := range []string{
		"circuit=toy kernel=dense faults=20 targets=10 |T|=100",
		"coverage of T: 10/20 faults (50.0%)",
		"knee at vector 3 (8 detected, 40.0%)",
		"50%/90%/95%/99% of detections by vector 2/50/100/100",
		"coverage curve (x: vector 0..100, y: detections 0..10)",
		"fault-free activity: peak 7 nodes/cycle, mean 5.0",
		"slowest fault groups",
		"detection attribution per window:",
		"  T    ",
		"  A0   ",
		"phase breakdown:",
		"pipeline",
		"kernel counters:",
		"fsim.vectors",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report lacks %q:\n%s", want, out)
		}
	}
	// The sparkline's top row must be sparse (late detections) and the
	// bottom row full (curve is cumulative and starts at 10%+ immediately).
	lines := strings.Split(out, "\n")
	var rows []string
	for _, ln := range lines {
		if strings.HasPrefix(ln, "  |") {
			rows = append(rows, ln)
		}
	}
	if len(rows) != 8 {
		t.Fatalf("sparkline has %d rows, want 8", len(rows))
	}
	if n := strings.Count(rows[7], "#"); n != 60 {
		t.Errorf("bottom sparkline row has %d/60 cells filled", n)
	}
	if n := strings.Count(rows[0], "#"); n >= 60 {
		t.Errorf("top sparkline row is full (%d cells)", n)
	}
}

func TestRenderEmptyReport(t *testing.T) {
	var buf bytes.Buffer
	Render(&buf, BuildReport(nil, nil))
	if !strings.Contains(buf.String(), "circuit=- kernel=-") {
		t.Errorf("empty render = %q", buf.String())
	}
	// A curve that never detects anything must not render a sparkline.
	buf.Reset()
	renderCurve(&buf, []CurvePoint{{Vector: 0, Detected: 0}})
	if buf.Len() != 0 {
		t.Errorf("zero curve rendered %q", buf.String())
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep := BuildReport(hockeyTrace(), nil)
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(rep, &back) {
		t.Errorf("JSON round trip drifts:\nA: %+v\nB: %+v", rep, &back)
	}
	if !bytes.Contains(b, []byte(`"schema":"wbist-report/v1"`)) {
		t.Errorf("JSON lacks schema tag: %s", b)
	}
}
