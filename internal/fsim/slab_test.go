package fsim

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/ref"
	"repro/internal/sim"
)

// TestSlabWorkersBitIdentical shards batches-of-W over the worker pool and
// checks the merged outcome against the ref oracle, across lane widths that
// split the group count evenly and not.
func TestSlabWorkersBitIdentical(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(11), c.NumInputs(), 48)
	s := New(c)
	want := ref.Run(c, seq, faults, ref.Options{Init: logic.Zero})
	for _, lanes := range []int{1, 3, 8} {
		for _, workers := range []int{1, 2, 7} {
			got := s.Run(seq, faults, Options{
				Init: logic.Zero, SlabLanes: lanes, Workers: workers,
			})
			if got.NumDetected != want.NumDetected {
				t.Fatalf("lanes=%d workers=%d: detected %d, want %d",
					lanes, workers, got.NumDetected, want.NumDetected)
			}
			for fi := range want.Detected {
				if got.Detected[fi] != want.Detected[fi] || got.DetTime[fi] != want.DetTime[fi] {
					t.Fatalf("lanes=%d workers=%d: fault %d diverges", lanes, workers, fi)
				}
			}
		}
	}
}

// TestSlabAbortAfterFirstGroup: the Section 4.2 effort-reduction contract —
// group 0 runs alone and, if it detects nothing, the remaining groups are
// never simulated, and a run that goes on must match the ref oracle.
func TestSlabAbortAfterFirstGroup(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	rng := randutil.New(3)

	// An all-X sequence detects nothing (binary difference is required), so
	// the abort fires.
	blank := sim.NewSequence(c.NumInputs())
	for u := 0; u < 4; u++ {
		vec := make([]logic.V, c.NumInputs())
		for i := range vec {
			vec[i] = logic.X
		}
		blank.Append(vec)
	}
	out := Run(c, blank, faults, Options{
		Init: logic.X, AbortAfterFirstGroupIfNone: true,
	})
	if passes := out.Work.GroupPasses; passes != 1 || out.NumDetected != 0 {
		t.Fatalf("blank sequence: %d group passes, detected %d, want the abort after group 0's with 0",
			passes, out.NumDetected)
	}

	// A real random sequence detects group-0 faults, so the run continues
	// and must match the oracle's unaborted result.
	seq := sim.RandomSequence(rng, c.NumInputs(), 32)
	want := ref.Run(c, seq, faults, ref.Options{Init: logic.Zero})
	got := Run(c, seq, faults, Options{
		Init: logic.Zero, AbortAfterFirstGroupIfNone: true, SlabLanes: 4,
	})
	if passes := got.Work.GroupPasses; passes != int64(len(want.Detected)+GroupSize-1)/GroupSize {
		t.Fatalf("%d group passes: aborted although group 0 detected faults", passes)
	}
	if got.NumDetected != want.NumDetected {
		t.Fatalf("detected %d, want %d", got.NumDetected, want.NumDetected)
	}
	for fi := range want.Detected {
		if got.Detected[fi] != want.Detected[fi] || got.DetTime[fi] != want.DetTime[fi] {
			t.Fatalf("fault %d diverges from the oracle after a non-aborted run", fi)
		}
	}
}

// TestSlabOutputHook: the slab kernel calls the hook once per lane's group
// (a hook turns the early exits off, so no repack has run and lane j holds
// group g0+j). Each group's (u, po) stream must equal the one-lane
// sequential run's for any Workers count and lane width, and the hooked
// run's result must match the ref oracle.
func TestSlabOutputHook(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(5), c.NumInputs(), 10)
	want := oneLaneHookStreams(t, c, seq, faults)
	oracle := ref.Run(c, seq, faults, ref.Options{Init: logic.Zero})
	for _, workers := range []int{1, 4, 8} {
		for _, lanes := range []int{0, 1, 2, 8} {
			opts := Options{Workers: workers, SlabLanes: lanes}
			if got := hookStreams(c, seq, faults, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("Workers=%d, SlabLanes=%d: per-group hook streams differ from one lane's", workers, lanes)
			}
			opts.Init = logic.Zero
			opts.OutputHook = func(lo, hi, u int, po []logic.W) {}
			if out := Run(c, seq, faults, opts); out.NumDetected != oracle.NumDetected {
				t.Fatalf("Workers=%d, SlabLanes=%d: hooked run detected %d, want %d",
					workers, lanes, out.NumDetected, oracle.NumDetected)
			}
		}
	}
}

// TestSlabCancel: a pre-cancelled context skips every batch in both the
// sequential and the parallel sharding paths, and the skipped groups are
// counted exactly.
func TestSlabCancel(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	groups := int64((len(faults) + GroupSize - 1) / GroupSize)
	seq := sim.RandomSequence(randutil.New(7), c.NumInputs(), 32)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, workers := range []int{1, 4} {
		out := Run(c, seq, faults, Options{
			Init: logic.Zero, SlabLanes: 4, Workers: workers, Ctx: ctx,
		})
		if !out.Cancelled() {
			t.Fatalf("workers=%d: Cancelled = false", workers)
		}
		if out.NumDetected != 0 {
			t.Fatalf("workers=%d: detected %d on a pre-cancelled run", workers, out.NumDetected)
		}
		if got := out.Work.GroupsCancelled; got != groups {
			t.Fatalf("workers=%d: Work.GroupsCancelled = %d, want %d", workers, got, groups)
		}
	}

	// Racing cancellation against the parallel shard must still account for
	// every group: lanes that ran plus lanes counted as cancelled.
	for trial := 0; trial < 4; trial++ {
		rctx, rcancel := context.WithCancel(context.Background())
		go rcancel()
		out := Run(c, seq, faults, Options{
			Init: logic.Zero, SlabLanes: 2, Workers: 4, Ctx: rctx,
		})
		if out.Cancelled() {
			for fi, det := range out.Detected {
				if det && out.DetTime[fi] < 0 {
					t.Fatalf("trial %d: detected fault %d with negative DetTime", trial, fi)
				}
			}
		}
		rcancel()
	}
}

// TestSlabWidthClamps pins the lane-width rule: the automatic width is
// slabAutoLanes whatever the netlist size (the 17,828-node s35932 included),
// capped at ceil(groups/workers) so that every worker gets a batch; an
// explicit SlabLanes overrides the automatic width but not the maxSlabLanes
// and group-count clamps.
func TestSlabWidthClamps(t *testing.T) {
	cases := []struct {
		label  string
		opts   Options
		groups int
		want   int
	}{
		{"auto, sequential", Options{}, 100, slabAutoLanes},
		{"auto, one worker", Options{Workers: 1}, 100, slabAutoLanes},
		{"auto, few groups", Options{}, 3, 3},
		{"auto, many groups over two workers", Options{Workers: 2}, 620, slabAutoLanes},
		{"auto, capped at ceil(groups/workers)", Options{Workers: 2}, 9, 5},
		{"auto, one group per worker", Options{Workers: 8}, 5, 1},
		{"explicit", Options{SlabLanes: 5, Workers: 8}, 100, 5},
		{"explicit, clamped to the cap", Options{SlabLanes: 99}, 100, maxSlabLanes},
		{"explicit, clamped to the groups", Options{SlabLanes: 12}, 7, 7},
	}
	for _, tc := range cases {
		if got := slabWidth(tc.opts, tc.groups); got != tc.want {
			t.Errorf("%s: slabWidth(groups=%d) = %d, want %d", tc.label, tc.groups, got, tc.want)
		}
	}
	// The rule does not look at the netlist: s35932 runs 8-lane batches.
	c := iscas.MustLoad("s35932")
	faults := fault.CollapsedUniverse(c)[:9*GroupSize]
	seq := sim.RandomSequence(randutil.New(9), c.NumInputs(), 2)
	out := Run(c, seq, faults, Options{Init: logic.X, SaveStates: true})
	if got := out.Work.Slab.Passes; got != 2 {
		t.Errorf("s35932, 9 groups: %d slab passes, want 2 (8 + 1 lanes)", got)
	}
}

// TestSlabWarmArenaAllocs checks that a reused slab Simulator keeps its
// lane arena across runs: a warm run must allocate fewer objects than the
// first run of a fresh Simulator, which has to build the arena.
func TestSlabWarmArenaAllocs(t *testing.T) {
	c := iscas.MustLoad("s298")
	faults := fault.CollapsedUniverse(c)
	seq := sim.RandomSequence(randutil.New(11), c.NumInputs(), 48)
	opts := Options{Init: logic.Zero, Workers: 1}
	const runs = 5
	warmSim := New(c)
	warm := testing.AllocsPerRun(runs, func() { warmSim.Run(seq, faults, opts) })
	// AllocsPerRun calls the function once more as a warm-up, so it needs
	// runs+1 fresh simulators, built outside the measured calls.
	fresh := make([]*Simulator, runs+1)
	for i := range fresh {
		fresh[i] = New(c)
	}
	next := 0
	cold := testing.AllocsPerRun(runs, func() {
		fresh[next].Run(seq, faults, opts)
		next++
	})
	if warm >= cold {
		t.Fatalf("warm slab run allocates %.0f objects, fresh run %.0f; want fewer when warm", warm, cold)
	}
}

// TestSlabRepackNeedsOneFaultFreeMachine continues two s344 fault groups,
// one batch, from saved states that carry different fault-free machines:
// group 1's words come from a run started in all-one, group 0's from one
// started in all-zero. A repack would put faults of both under one lane's
// slot 0, so the slab kernel must find that the lanes disagree and not
// repack the batch: the outcome and the per-group counters must equal the
// one-lane run's, where each group runs alone, and the lanes walked must
// not fall below the groups' vectors.
func TestSlabRepackNeedsOneFaultFreeMachine(t *testing.T) {
	c := iscas.MustLoad("s344")
	faults := fault.CollapsedUniverse(c)[:2*GroupSize]
	seq := sim.RandomSequence(randutil.New(4), c.NumInputs(), 80)
	pre := seq.Slice(0, 5)
	zero := Run(c, pre, faults, Options{Init: logic.Zero, SaveStates: true}).FinalStates
	one := Run(c, pre, faults, Options{Init: logic.One, SaveStates: true}).FinalStates
	mixed := *zero
	mixed.groups = append([][]logic.W(nil), zero.groups...)
	mixed.groups[1] = one.groups[1]
	if slices.Equal(mixed.Good(0), mixed.Good(GroupSize)) {
		t.Fatal("groups 0 and 1 start from the same fault-free state; the test needs them to differ")
	}
	rest := seq.Slice(5, seq.Len())
	want := Run(c, rest, faults, Options{InitialStates: &mixed, SlabLanes: 1, Workers: 1})
	want.Work.Slab = SlabWork{}
	got := Run(c, rest, faults, Options{InitialStates: &mixed})
	lc, v := got.Work.Slab.LaneCycles, got.Work.Vectors
	// With the batch tallies cleared, DeepEqual also demands the one-lane
	// run's vectors, group passes, repeat exits and gate evaluations.
	got.Work.Slab = SlabWork{}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("outcome or work differs from one lane's: %+v, one lane %+v", got.Work, want.Work)
	}
	if lc < v {
		t.Errorf("slab walked %d lane-cycles for %d group vectors: lanes with different fault-free machines were merged", lc, v)
	}
}
