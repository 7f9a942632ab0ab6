package fsim

import (
	"bytes"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/randutil"
	"repro/internal/rcg"
	"repro/internal/sim"
)

// TestTraceMatchesOutcome checks the trace against the outcome it narrates:
// every detected fault has exactly one event whose time equals DetTime and
// whose primary output actually shows the binary difference, undetected
// faults have none, and the bookkeeping (vectors, activity length) is
// consistent with the run.
func TestTraceMatchesOutcome(t *testing.T) {
	c := iscas.MustLoad("s298")
	rng := randutil.New(0x7ace)
	seq := sim.RandomSequence(rng, c.NumInputs(), 40)
	faults := fault.CollapsedUniverse(c)
	for _, lanes := range []int{1, 0} {
		tr := obsv.NewTrace()
		out := Run(c, seq, faults, Options{Init: logic.Zero, SlabLanes: lanes, Trace: tr})
		if tr.Kernel() != "slab" {
			t.Fatalf("trace kernel = %q, want slab", tr.Kernel())
		}
		if want := (len(faults) + GroupSize - 1) / GroupSize; tr.NumGroups() != want {
			t.Fatalf("trace groups = %d, want %d", tr.NumGroups(), want)
		}
		if tr.NumDetections() != out.NumDetected {
			t.Fatalf("SlabLanes=%d: %d events for %d detections", lanes, tr.NumDetections(), out.NumDetected)
		}
		seen := make(map[int]bool)
		for _, ev := range tr.Events() {
			if seen[ev.Fault] {
				t.Fatalf("SlabLanes=%d: fault %d has more than one event", lanes, ev.Fault)
			}
			seen[ev.Fault] = true
			if !out.Detected[ev.Fault] || out.DetTime[ev.Fault] != ev.Time {
				t.Fatalf("SlabLanes=%d: event %+v disagrees with outcome (det=%v t=%d)",
					lanes, ev, out.Detected[ev.Fault], out.DetTime[ev.Fault])
			}
			if ev.Group != ev.Fault/GroupSize {
				t.Fatalf("SlabLanes=%d: event %+v in wrong group", lanes, ev)
			}
			if ev.PO < 0 || ev.PO >= len(c.Outputs) {
				t.Fatalf("SlabLanes=%d: event %+v has out-of-range PO", lanes, ev)
			}
			if ev.Assignment != -1 {
				t.Fatalf("SlabLanes=%d: unattributed run stamped assignment %d", lanes, ev.Assignment)
			}
		}
		for fi, det := range out.Detected {
			if det && !seen[fi] {
				t.Fatalf("SlabLanes=%d: detected fault %d has no event", lanes, fi)
			}
		}
		// Group 0's activity curve has one sample per vector transition.
		gv := tr.GroupVectors()
		if len(gv) == 0 || gv[0] <= 0 {
			t.Fatalf("SlabLanes=%d: group 0 vectors = %v", lanes, gv)
		}
		if got := len(tr.Activity()); got != gv[0]-1 {
			t.Fatalf("SlabLanes=%d: activity has %d samples for %d vectors", lanes, got, gv[0])
		}
	}
}

// TestTraceDeterministic is the core tracing invariant: for a fixed circuit,
// sequence and fault list, the canonical trace bytes are identical for every
// worker count at one lane and at the automatic width, on a fresh and on a
// reused simulator. (The difftest package sweeps the same property over 100
// random triples.)
func TestTraceDeterministic(t *testing.T) {
	rng := randutil.New(0xdead)
	run := func(name string, c *circuit.Circuit) {
		t.Helper()
		seq := sim.RandomSequence(rng, c.NumInputs(), 24)
		faults := fault.CollapsedUniverse(c)
		var want []byte
		s := New(c)
		for _, lanes := range []int{1, 0} {
			for _, workers := range []int{1, 4, 8} {
				for pass := 0; pass < 2; pass++ { // second pass: warm scratch
					tr := obsv.NewTrace()
					s.Run(seq, faults, Options{Init: logic.X, SlabLanes: lanes, Workers: workers, Trace: tr})
					got := tr.CanonicalBytes()
					if want == nil {
						want = got
						continue
					}
					if !bytes.Equal(want, got) {
						t.Fatalf("%s: trace differs for SlabLanes=%d workers=%d pass=%d",
							name, lanes, workers, pass)
					}
				}
			}
		}
	}
	run("s27", iscas.MustLoad("s27"))
	run("s298", iscas.MustLoad("s298"))
	for _, seed := range []uint64{9, 310, 7777} {
		run("rcg", rcg.FromSeed(seed))
	}
}

// TestTraceTimeOffset checks that continuation runs stamp absolute times:
// a run continued from a prefix's saved states traces each detection at the
// time the unsplit run detects it.
func TestTraceTimeOffset(t *testing.T) {
	c := iscas.MustLoad("s27")
	seq, err := sim.ParseSequence(iscas.S27TestSequence)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	whole := Run(c, seq, faults, Options{Init: logic.Zero})
	const split = 2
	pre := Run(c, seq.Slice(0, split), faults, Options{Init: logic.Zero, SaveStates: true})
	tr := obsv.NewTrace()
	out := Run(c, seq.Slice(split, seq.Len()), faults, Options{InitialStates: pre.FinalStates, Trace: tr})
	if len(tr.Events()) == 0 {
		t.Fatal("the continuation detects nothing; the test needs a traced detection")
	}
	for _, ev := range tr.Events() {
		if ev.Time < split || ev.Time != out.DetTime[ev.Fault] || (!pre.Detected[ev.Fault] && ev.Time != whole.DetTime[ev.Fault]) {
			t.Fatalf("event %+v: continuation from time %d, unsplit DetTime %d", ev, split, whole.DetTime[ev.Fault])
		}
	}
}
