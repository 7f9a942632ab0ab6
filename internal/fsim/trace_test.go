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
	for _, k := range []Kernel{KernelDense, KernelSlab} {
		tr := obsv.NewTrace()
		out := Run(c, seq, faults, Options{Init: logic.Zero, Kernel: k, Trace: tr})
		if tr.Kernel() != k.String() {
			t.Fatalf("trace kernel = %q, want %q", tr.Kernel(), k)
		}
		if want := (len(faults) + GroupSize - 1) / GroupSize; tr.NumGroups() != want {
			t.Fatalf("trace groups = %d, want %d", tr.NumGroups(), want)
		}
		if tr.NumDetections() != out.NumDetected {
			t.Fatalf("%v: %d events for %d detections", k, tr.NumDetections(), out.NumDetected)
		}
		seen := make(map[int]bool)
		for _, ev := range tr.Events() {
			if seen[ev.Fault] {
				t.Fatalf("%v: fault %d has more than one event", k, ev.Fault)
			}
			seen[ev.Fault] = true
			if !out.Detected[ev.Fault] || out.DetTime[ev.Fault] != ev.Time {
				t.Fatalf("%v: event %+v disagrees with outcome (det=%v t=%d)",
					k, ev, out.Detected[ev.Fault], out.DetTime[ev.Fault])
			}
			if ev.Group != ev.Fault/GroupSize {
				t.Fatalf("%v: event %+v in wrong group", k, ev)
			}
			if ev.PO < 0 || ev.PO >= len(c.Outputs) {
				t.Fatalf("%v: event %+v has out-of-range PO", k, ev)
			}
			if ev.Assignment != -1 {
				t.Fatalf("%v: unattributed run stamped assignment %d", k, ev.Assignment)
			}
		}
		for fi, det := range out.Detected {
			if det && !seen[fi] {
				t.Fatalf("%v: detected fault %d has no event", k, fi)
			}
		}
		// Group 0's activity curve has one sample per vector transition.
		gv := tr.GroupVectors()
		if len(gv) == 0 || gv[0] <= 0 {
			t.Fatalf("%v: group 0 vectors = %v", k, gv)
		}
		if got := len(tr.Activity()); got != gv[0]-1 {
			t.Fatalf("%v: activity has %d samples for %d vectors", k, got, gv[0])
		}
	}
}

// TestTraceDeterministic is the core tentpole invariant: for a fixed circuit,
// sequence and fault list, the canonical trace bytes are identical for every
// worker count and both kernels, on a fresh and on a reused simulator. (The
// difftest package sweeps the same property over 100 random triples.)
func TestTraceDeterministic(t *testing.T) {
	rng := randutil.New(0xdead)
	run := func(name string, c *circuit.Circuit) {
		t.Helper()
		seq := sim.RandomSequence(rng, c.NumInputs(), 24)
		faults := fault.CollapsedUniverse(c)
		var want []byte
		s := New(c)
		for _, k := range []Kernel{KernelDense, KernelSlab} {
			for _, workers := range []int{1, 4, 8} {
				for pass := 0; pass < 2; pass++ { // second pass: warm scratch
					tr := obsv.NewTrace()
					s.Run(seq, faults, Options{Init: logic.X, Kernel: k, Workers: workers, Trace: tr})
					got := tr.CanonicalBytes()
					if want == nil {
						want = got
						continue
					}
					if !bytes.Equal(want, got) {
						t.Fatalf("%s: trace differs for kernel=%v workers=%d pass=%d",
							name, k, workers, pass)
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

// TestTraceTimeOffset checks that continuation runs stamp absolute times.
func TestTraceTimeOffset(t *testing.T) {
	c := iscas.MustLoad("s27")
	seq, err := sim.ParseSequence(iscas.S27TestSequence)
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	tr := obsv.NewTrace()
	out := Run(c, seq, faults, Options{Init: logic.Zero, Trace: tr, TimeOffset: 100})
	for _, ev := range tr.Events() {
		if ev.Time < 100 || ev.Time != out.DetTime[ev.Fault] {
			t.Fatalf("event %+v ignores TimeOffset", ev)
		}
	}
}
