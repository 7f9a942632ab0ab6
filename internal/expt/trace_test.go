package expt

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fsim"
	"repro/internal/obsv"
)

// TestTraceRunProvenance checks the whole-run trace against the run it
// narrates: the T segment's detection count equals the target count, the
// assignment segments cover every target exactly once (fault dropping), and
// the serialised form round-trips.
func TestTraceRunProvenance(t *testing.T) {
	cfg := Config{LG: 100, Seed: 1}
	r, err := RunCircuit("s27", cfg)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := TraceRun(r, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Circuit != "s27" || rt.TLen != r.T.Len() || rt.Targets != len(r.Targets) {
		t.Fatalf("trace header %+v disagrees with run", rt)
	}
	if len(rt.Segments) != 1+len(r.Compacted) {
		t.Fatalf("%d segments for T + %d assignments", len(rt.Segments), len(r.Compacted))
	}
	tseg := rt.Segments[0]
	if tseg.Assignment != -1 || tseg.Detected != len(r.Targets) {
		t.Fatalf("T segment %+v: want assignment -1 and %d detections", tseg, len(r.Targets))
	}
	if len(tseg.Events) != tseg.Detected {
		t.Fatalf("T segment has %d events for %d detections", len(tseg.Events), tseg.Detected)
	}
	// Every target is detected by exactly one assignment window (coverage
	// 1.0 on s27), and event fault indices are target indices.
	covered := make([]int, len(r.Targets))
	for _, seg := range rt.Segments[1:] {
		if seg.Detected != len(seg.Events) {
			t.Fatalf("segment A%d: %d events for %d detections", seg.Assignment, len(seg.Events), seg.Detected)
		}
		for _, ev := range seg.Events {
			if ev.Fault < 0 || ev.Fault >= len(r.Targets) {
				t.Fatalf("segment A%d event %+v outside target space", seg.Assignment, ev)
			}
			if ev.Assignment != seg.Assignment {
				t.Fatalf("event %+v in segment A%d", ev, seg.Assignment)
			}
			covered[ev.Fault]++
		}
	}
	for i, n := range covered {
		if n != 1 {
			t.Fatalf("target %d detected by %d windows, want exactly 1", i, n)
		}
	}

	var buf bytes.Buffer
	if err := obsv.WriteTrace(&buf, rt); err != nil {
		t.Fatal(err)
	}
	back, err := obsv.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rt, back) {
		t.Fatalf("trace does not round-trip through JSONL")
	}

	rep := obsv.BuildReport(rt, nil)
	if rep.Coverage.Detected != len(r.Targets) || rep.Coverage.Knee.Vector < 0 {
		t.Fatalf("report coverage %+v disagrees with run", rep.Coverage)
	}
	if len(rep.Assignments) != len(rt.Segments) {
		t.Fatalf("report has %d attribution rows for %d segments", len(rep.Assignments), len(rt.Segments))
	}
	var out bytes.Buffer
	obsv.Render(&out, rep)
	for _, want := range []string{"run report:", "coverage of T:", "detection attribution"} {
		if !bytes.Contains(out.Bytes(), []byte(want)) {
			t.Fatalf("rendered report missing %q:\n%s", want, out.String())
		}
	}
}

// TestTraceRunKernelInvariant pins the cross-kernel determinism of the
// whole-run trace (events and bookkeeping, not annotations). The kernel is
// steered through FSIM_KERNEL, which every fsim call of TraceRun honors.
func TestTraceRunKernelInvariant(t *testing.T) {
	r, err := RunCircuit("s298", Config{LG: 300, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	strip := func(rt *obsv.RunTrace) *obsv.RunTrace {
		rt.Kernel = ""
		for i := range rt.Segments {
			for j := range rt.Segments[i].Events {
				rt.Segments[i].Events[j].Kernel = ""
				rt.Segments[i].Events[j].Worker = 0
			}
		}
		return rt
	}
	var want *obsv.RunTrace
	for _, k := range []fsim.Kernel{fsim.KernelDense, fsim.KernelSlab} {
		t.Setenv("FSIM_KERNEL", k.String())
		for _, workers := range []int{1, 4} {
			rt, err := TraceRun(r, Config{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if rt.Kernel != k.String() {
				t.Fatalf("trace records kernel %q under FSIM_KERNEL=%v", rt.Kernel, k)
			}
			got := strip(rt)
			if want == nil {
				want = got
				continue
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("run trace differs for kernel=%v workers=%d", k, workers)
			}
		}
	}
}
