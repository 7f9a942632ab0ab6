package fsim

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
)

// TestCancelBeforeStart: a context that is already cancelled when Run is
// entered skips every fault group, marks the outcome Cancelled, and counts
// all groups in Work.GroupsCancelled.
func TestCancelBeforeStart(t *testing.T) {
	c, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, workers := range []int{0, 4} {
		out := Run(c, seq, faults, Options{Init: logic.Zero, Workers: workers, Ctx: ctx})

		if !out.Cancelled() {
			t.Fatalf("workers=%d: Cancelled = false", workers)
		}
		if out.NumDetected != 0 {
			t.Errorf("workers=%d: NumDetected = %d on a pre-cancelled run", workers, out.NumDetected)
		}
		groups := int64((len(faults) + GroupSize - 1) / GroupSize)
		if got := out.Work.GroupsCancelled; got != groups {
			t.Errorf("workers=%d: Work.GroupsCancelled = %d, want %d", workers, got, groups)
		}
		if got := out.Work.GroupPasses; got != 0 {
			t.Errorf("workers=%d: Work.GroupPasses = %d, want 0", workers, got)
		}
	}
}

// TestCancelMidRun cancels from the OutputHook during the first group's
// simulation (one worker and one-group batches make the cut deterministic):
// the in-flight group completes, every later group is skipped and counted,
// and the outcome is marked Cancelled.
func TestCancelMidRun(t *testing.T) {
	c, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	groups := (len(faults) + GroupSize - 1) / GroupSize
	if groups < 2 {
		t.Fatalf("need >= 2 fault groups, have %d", groups)
	}
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 32)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out := Run(c, seq, faults, Options{
		Init:      logic.Zero,
		Ctx:       ctx,
		SlabLanes: 1,
		OutputHook: func(lo, hi, u int, po []logic.W) {
			if lo == 0 && u == 0 {
				cancel()
			}
		},
	})

	if !out.Cancelled() {
		t.Fatal("Cancelled = false after mid-run cancellation")
	}
	if got := out.Work.GroupPasses; got != 1 {
		t.Errorf("Work.GroupPasses = %d, want 1 (first group runs to completion)", got)
	}
	if got := out.Work.GroupsCancelled; got != int64(groups-1) {
		t.Errorf("Work.GroupsCancelled = %d, want %d", got, groups-1)
	}
}

// TestCancelMidRunParallel races a cancellation against a worker-pool run.
// Whatever the timing, the run must terminate, and the groups that did run
// plus the groups counted as cancelled must account for the whole universe
// — i.e. cancelled workers really returned to the pool instead of finishing
// the sweep. Run under -race this also exercises the ctx check on the claim
// path.
func TestCancelMidRunParallel(t *testing.T) {
	c, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	groups := int64((len(faults) + GroupSize - 1) / GroupSize)
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 64)

	for trial := 0; trial < 4; trial++ {
		ctx, cancel := context.WithCancel(context.Background())
		go cancel()
		out := Run(c, seq, faults, Options{Init: logic.Zero, Workers: 4, Ctx: ctx})

		ran, skipped := out.Work.GroupPasses, out.Work.GroupsCancelled
		if ran+skipped != groups {
			t.Fatalf("trial %d: ran %d + cancelled %d != %d groups", trial, ran, skipped, groups)
		}
		if out.Cancelled() != (skipped > 0) {
			t.Fatalf("trial %d: Cancelled = %v with %d groups skipped", trial, out.Cancelled(), skipped)
		}
		cancel()
	}
}

// TestNilCtxUnaffected: runs without a context behave exactly as before and
// never count a cancelled group.
func TestNilCtxUnaffected(t *testing.T) {
	c, err := iscas.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 32)
	out := Run(c, seq, faults, Options{Init: logic.X})
	if out.Cancelled() {
		t.Error("Cancelled = true without a context")
	}
	if got := out.Work.GroupsCancelled; got != 0 {
		t.Errorf("Work.GroupsCancelled = %d, want 0", got)
	}
}

// cutCtx is a context whose Done channel reads as closed from its k-th call
// onward (k >= 1), which cuts a run at a deterministic cancellation check.
type cutCtx struct {
	context.Context
	k     int64
	calls atomic.Int64
}

var closedDone = func() chan struct{} { ch := make(chan struct{}); close(ch); return ch }()

func (c *cutCtx) Done() <-chan struct{} {
	if c.calls.Add(1) >= c.k {
		return closedDone
	}
	return nil
}

// TestCancelAccounting cuts runs at the k-th cancellation check, for both
// kernels, slab lane widths 1 and 4, Workers 1 and 4, with and without the
// Section 4.2 group-0 pass. Every fault group must be counted exactly once,
// as a pass that ran or as a cancelled group, and Cancelled must say whether
// any group was skipped. At Workers=1 the cut is exact: Run checks once on
// entry and then once before each batch of w groups, after the group-0 pass
// when it runs first.
func TestCancelAccounting(t *testing.T) {
	c, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	faults := fault.CollapsedUniverse(c)
	groups := (len(faults) + GroupSize - 1) / GroupSize
	if groups < 3 {
		t.Fatalf("need >= 3 fault groups, have %d", groups)
	}
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 32)

	kernels := []struct {
		name   string
		kernel Kernel
		lanes  int
		w      int // groups per batch
	}{
		{"dense", KernelDense, 0, 1},
		{"slab-w1", KernelSlab, 1, 1},
		{"slab-w4", KernelSlab, 4, 4},
	}
	for _, kc := range kernels {
		for _, workers := range []int{1, 4} {
			for _, abort := range []bool{false, true} {
				for k := int64(1); k <= int64(groups)+2; k++ {
					ctx := &cutCtx{Context: context.Background(), k: k}
					out := Run(c, seq, faults, Options{
						Init: logic.Zero, Kernel: kc.kernel, SlabLanes: kc.lanes,
						Workers: workers, AbortAfterFirstGroupIfNone: abort, Ctx: ctx,
					})
					ran, skipped := out.Work.GroupPasses, out.Work.GroupsCancelled
					name := fmt.Sprintf("%s workers=%d abort=%v k=%d", kc.name, workers, abort, k)
					if abort && ran == 1 && skipped == 0 && out.NumDetected == 0 {
						t.Fatalf("%s: group 0 detected nothing; the accounting needs a run that goes on", name)
					}
					if ran+skipped != int64(groups) {
						t.Errorf("%s: ran %d + cancelled %d != %d groups", name, ran, skipped, groups)
					}
					if out.Cancelled() != (skipped > 0) {
						t.Errorf("%s: Cancelled = %v with %d groups cancelled", name, out.Cancelled(), skipped)
					}
					if workers != 1 {
						continue
					}
					want := int64(0)
					if k > 1 {
						first := 0
						if abort {
							first = 1
						}
						want = int64(first + min(int(k-2)*kc.w, groups-first))
					}
					if ran != want {
						t.Errorf("%s: %d passes ran, want %d", name, ran, want)
					}
				}
			}
		}
	}
}
