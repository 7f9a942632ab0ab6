package fsim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
)

// outcomesEqual compares every merged field of two outcomes bit by bit.
func outcomesEqual(t *testing.T, label string, want, got *Outcome) {
	t.Helper()
	if !reflect.DeepEqual(want.Detected, got.Detected) {
		t.Fatalf("%s: Detected differs", label)
	}
	if !reflect.DeepEqual(want.DetTime, got.DetTime) {
		t.Fatalf("%s: DetTime differs", label)
	}
	if want.NumDetected != got.NumDetected {
		t.Fatalf("%s: NumDetected %d vs %d", label, want.NumDetected, got.NumDetected)
	}
	if !reflect.DeepEqual(want.Lines, got.Lines) {
		t.Fatalf("%s: Lines differ", label)
	}
	if !reflect.DeepEqual(want.FinalStates, got.FinalStates) {
		t.Fatalf("%s: FinalStates differ", label)
	}
}

// TestParallelMatchesSequential is the determinism guarantee: for randomized
// circuits and fault lists, a parallel run must be byte-identical to the
// sequential run for every worker count, covering Workers=1 and workers >
// groups, under both kernels. Run under -race it also proves the fan-out is
// data-race free.
//
// Outcome.Work is compared exactly under the dense kernel. The slab
// kernel's automatic lane width follows the worker count, so its batch
// tallies (Work.Slab) legitimately differ between the runs; there only the
// dense-equivalent work is compared.
func TestParallelMatchesSequential(t *testing.T) {
	profiles := []iscas.Profile{
		{Name: "p1", Inputs: 4, Outputs: 3, DFFs: 4, Gates: 40, Seed: 11, Synthetic: true},
		{Name: "p2", Inputs: 5, Outputs: 4, DFFs: 6, Gates: 90, Seed: 12, Synthetic: true},
		{Name: "p3", Inputs: 6, Outputs: 4, DFFs: 8, Gates: 160, Seed: 13, Synthetic: true},
	}
	optVariants := []struct {
		name string
		opts Options
	}{
		{"plain", Options{Init: logic.Zero}},
		{"observe", Options{Init: logic.Zero, ObserveLines: true}},
		{"save", Options{Init: logic.X, SaveStates: true}},
		{"abort", Options{Init: logic.Zero, AbortAfterFirstGroupIfNone: true}},
	}
	for _, p := range profiles {
		c, err := iscas.Generate(p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		faults := fault.CollapsedUniverse(c)
		seq := sim.RandomSequence(randutil.New(p.Seed+100), c.NumInputs(), 24)
		groups := (len(faults) + GroupSize - 1) / GroupSize
		for _, kernel := range []Kernel{KernelDense, KernelSlab} {
			for _, v := range optVariants {
				opts := v.opts
				opts.Kernel = kernel
				want := New(c).Run(seq, faults, opts)
				for _, workers := range []int{1, 2, 3, groups + 5} {
					opts := opts
					opts.Workers = workers
					got := New(c).Run(seq, faults, opts)
					label := p.Name + "/" + kernel.String() + "/" + v.name
					outcomesEqual(t, label, want, got)
					seqWork, parWork := want.Work, got.Work
					if kernel == KernelSlab {
						seqWork.Slab, parWork.Slab = SlabWork{}, SlabWork{}
					}
					if seqWork != parWork {
						t.Fatalf("%s workers=%d: work %+v vs sequential %+v", label, workers, parWork, seqWork)
					}
				}
			}
		}
	}
}

// TestParallelSuiteCircuit repeats the differential check on a real-sized
// suite circuit with a reused simulator (the worker pool must not leak state
// between runs).
func TestParallelSuiteCircuit(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	s := New(c)
	for round := uint64(0); round < 3; round++ {
		seq := sim.RandomSequence(randutil.New(31+round), c.NumInputs(), 40)
		want := New(c).Run(seq, faults, Options{Init: logic.Zero})
		got := s.Run(seq, faults, Options{Init: logic.Zero, Workers: 4})
		outcomesEqual(t, "s298", want, got)
	}
}

// hookCall is one OutputHook call as a group's stream records it.
type hookCall struct {
	hi, u int
	po    []logic.W
}

// hookStreams runs seq over faults with a hook that records every call into
// its own group's slot, so concurrent groups never share a write (race-free
// under -race), and returns the per-group streams.
func hookStreams(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, opts Options) [][]hookCall {
	streams := make([][]hookCall, (len(faults)+GroupSize-1)/GroupSize)
	opts.Init = logic.Zero
	opts.OutputHook = func(lo, hi, u int, po []logic.W) {
		g := lo / GroupSize
		streams[g] = append(streams[g], hookCall{hi, u, slices.Clone(po)})
	}
	Run(c, seq, faults, opts)
	return streams
}

// denseHookStreams is the reference for the hook tests: the dense kernel at
// Workers=1, checked to call each group once per time unit in time order.
func denseHookStreams(t *testing.T, c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault) [][]hookCall {
	t.Helper()
	want := hookStreams(c, seq, faults, Options{Kernel: KernelDense, Workers: 1})
	for g, st := range want {
		if len(st) != seq.Len() {
			t.Fatalf("dense: group %d hooked %d times, want %d", g, len(st), seq.Len())
		}
		for u, cl := range st {
			if cl.u != u || cl.hi != min((g+1)*GroupSize, len(faults)) {
				t.Fatalf("dense: group %d call %d has u=%d hi=%d", g, u, cl.u, cl.hi)
			}
		}
	}
	return want
}

// TestOutputHookForcesSequential checks the hook contract on the dense
// kernel: each group's calls come once per time unit, in time order, and may
// run concurrently with other groups' calls. The hook no longer forces
// sequential execution; what it must still force is the sequential run's
// result, so each group's (u, po) stream equals the Workers=1 run's for any
// Workers count. TestSlabOutputHook checks the same on the slab kernel.
func TestOutputHookForcesSequential(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(5), c.NumInputs(), 10)
	want := denseHookStreams(t, c, seq, faults)
	for _, workers := range []int{4, 8} {
		got := hookStreams(c, seq, faults, Options{Kernel: KernelDense, Workers: workers})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("dense, Workers=%d: per-group hook streams differ from Workers=1", workers)
		}
	}
}

// TestInitialStatesValidation is the regression test for the silent state
// corruption bug: a mis-shaped InitialStates must fail loudly instead of
// being partially copied over a stale state vector.
func TestInitialStatesValidation(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(9), c.NumInputs(), 8)
	pre := Run(c, seq, faults, Options{Init: logic.Zero, SaveStates: true})

	mustPanic := func(name, fragment string, opts Options, fl []fault.Fault) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: expected panic", name)
			}
			if msg, ok := r.(string); !ok || !strings.Contains(msg, fragment) {
				t.Fatalf("%s: panic %v does not mention %q", name, r, fragment)
			}
		}()
		Run(c, seq, fl, opts)
	}

	// Fault count mismatch: continuing with a truncated fault list.
	mustPanic("short fault list", "fault states",
		Options{InitialStates: pre.FinalStates}, faults[:GroupSize])

	// Machine width mismatch: states saved on a different circuit.
	other := Run(iscas.MustLoad("s27"), sim.RandomSequence(randutil.New(9), 4, 4),
		fault.CollapsedUniverse(iscas.MustLoad("s27")), Options{SaveStates: true})
	mustPanic("other circuit", "flip-flops", Options{InitialStates: other.FinalStates}, faults[:other.FinalStates.Len()])

	// The well-shaped continuation still works.
	post := Run(c, seq, faults, Options{InitialStates: pre.FinalStates})
	if len(post.Detected) != len(faults) {
		t.Fatal("well-shaped continuation failed")
	}
}

// TestTimeOffset covers a two-segment run: the prefix's saved states carry
// its length, so the continued run's detection times are offset by it and
// directly comparable to the unsplit run's u_det(f).
func TestTimeOffset(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	full := sim.RandomSequence(randutil.New(21), c.NumInputs(), 60)
	prefix := full.Slice(0, 40)
	suffix := full.Slice(40, 60)
	whole := Run(c, full, faults, Options{Init: logic.Zero})
	pre := Run(c, prefix, faults, Options{Init: logic.Zero, SaveStates: true})
	post := Run(c, suffix, faults, Options{
		InitialStates: pre.FinalStates,
		Workers:       3,
	})
	for i := range faults {
		if !whole.Detected[i] || pre.Detected[i] {
			if !post.Detected[i] && post.DetTime[i] != -1 {
				t.Fatalf("fault %d: undetected but DetTime %d", i, post.DetTime[i])
			}
			continue
		}
		if !post.Detected[i] {
			t.Fatalf("fault %s: detected by whole run at %d but not by continuation",
				faults[i].String(c), whole.DetTime[i])
		}
		if post.DetTime[i] != whole.DetTime[i] {
			t.Fatalf("fault %s: continuation DetTime %d != whole-run %d",
				faults[i].String(c), post.DetTime[i], whole.DetTime[i])
		}
	}
}

// TestParallelAbortSemantics: group 0 runs alone first; when it detects
// nothing the rest of the fleet is never fanned out, and when it detects,
// the fanned-out result matches the sequential one.
func TestParallelAbortSemantics(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(3), c.NumInputs(), 30)
	want := Run(c, seq, faults, Options{Init: logic.Zero, AbortAfterFirstGroupIfNone: true})
	got := Run(c, seq, faults, Options{Init: logic.Zero, AbortAfterFirstGroupIfNone: true, Workers: 4})
	outcomesEqual(t, "abort-parallel", want, got)
}

func TestWorkerPoolReuse(t *testing.T) {
	// workerSims must hand out the receiver plus pooled scratch simulators
	// sharing the flattened netlist, and must not grow on repeated calls.
	c := iscas.MustLoad("s27")
	s := New(c)
	a := s.workerSims(4)
	b := s.workerSims(3)
	if len(a) != 4 || len(b) != 3 {
		t.Fatalf("worker counts %d/%d", len(a), len(b))
	}
	if a[0] != s || b[0] != s {
		t.Fatal("worker 0 must be the receiver")
	}
	if a[1] != b[1] {
		t.Fatal("pool not reused across runs")
	}
	if &a[1].gateID[0] != &s.gateID[0] {
		t.Fatal("workers must share the flattened netlist")
	}
	if len(s.pool) != 3 {
		t.Fatalf("pool grew to %d, want 3", len(s.pool))
	}
}

// TestWorkerPanicReachesCaller injects a fault whose node id is out of
// range into the second fault group of a Workers=2 run, so the panic
// happens on a pool goroutine. It must be raised again on the calling
// goroutine, where it can be recovered, instead of ending the process, on
// every kernel.
func TestWorkerPanicReachesCaller(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := append([]fault.Fault(nil), fault.CollapsedUniverse(c)[:3*GroupSize]...)
	faults[GroupSize+5].Node = circuit.NodeID(len(c.Nodes) + 7)
	seq := sim.RandomSequence(randutil.New(4), c.NumInputs(), 10)
	for _, k := range []Kernel{KernelDense, KernelSlab} {
		func() {
			defer func() {
				p := recover()
				if p == nil {
					t.Fatalf("%v: Run returned normally over a fault with an out-of-range node", k)
				}
				if msg, ok := p.(string); !ok || !strings.Contains(msg, "index out of range") {
					t.Fatalf("%v: panic %v does not carry the worker's panic", k, p)
				}
			}()
			// SlabLanes 1 gives the slab kernel one batch per group, so it
			// fans out too.
			Run(c, seq, faults, Options{Init: logic.Zero, Workers: 2, Kernel: k, SlabLanes: 1})
		}()
	}
}
