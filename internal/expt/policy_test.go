package expt

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/bist"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// spanCounts returns how many spans of each path a recorder has recorded.
func spanCounts(rec *telemetry.Recorder) map[string]int {
	m := map[string]int{}
	for _, p := range rec.Phases() {
		m[p.Span] = p.Count
	}
	return m
}

// TestRunCarriesNoPolicy: two RunCircuit calls that differ only in Workers,
// context and recorder share one *Run, which keeps none of them. A stage run
// on that Run afterwards works for the caller that asked for it: the second
// caller's obs experiment and BIST session (the body of
// wbist.RunBISTSession) record their root spans into its recorder, and the
// first caller's recorder gains nothing after its pipeline.
func TestRunCarriesNoPolicy(t *testing.T) {
	ClearCache()
	r1, r2 := telemetry.New(), telemetry.New()
	a, err := RunCircuit("s298", Config{Seed: 1, Workers: 1, Telemetry: r1, Ctx: context.Background()})
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := Config{Seed: 1, Workers: 4, Telemetry: r2}
	b, err := RunCircuit("s298", cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("runs differing only in policy do not share one *Run")
	}
	if want := CanonicalConfig("s298", Config{Seed: 1}); b.Config != want {
		t.Fatalf("Run.Config = %+v, want the identity fields alone: %+v", b.Config, want)
	}
	first := spanCounts(r1)
	if first["pipeline"] != 1 {
		t.Fatalf("first caller's recorder holds %v, want one pipeline", first)
	}
	if got := spanCounts(r2); len(got) != 0 {
		t.Fatalf("cache hit recorded %v", got)
	}

	if _, err := ObsExperiment(b, cfg2); err != nil {
		t.Fatal(err)
	}
	if _, err := bist.RunWeightedSession(cfg2.Ctx, b.Core, b.Compacted, 16, cfg2.Workers, cfg2.Telemetry.Root()); err != nil {
		t.Fatal(err)
	}
	if got, want := spanCounts(r2), map[string]int{"obs": 1, "bist-session": 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("second caller's recorder holds %v, want %v", got, want)
	}
	if got := spanCounts(r1); !reflect.DeepEqual(got, first) {
		t.Errorf("first caller's recorder went from %v to %v after its pipeline", first, got)
	}
}

// TestPostRunStagesWorkersInvariant: the stages that run on a finished Run
// take Workers from their caller, and what they return is the same at any
// worker count.
func TestPostRunStagesWorkersInvariant(t *testing.T) {
	r, err := RunCircuit("s298", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	type stages struct {
		compacted []core.Assignment
		detSets   []fsim.Bitset
		obs       *obs.Result
	}
	var want *stages
	for _, workers := range []int{1, 4} {
		got := &stages{compacted: core.ReverseOrderCompact(r.Core, workers)}
		if got.detSets, err = core.DetectionSets(context.Background(), r.Core, workers); err != nil {
			t.Fatal(err)
		}
		if got.obs, err = obs.Experiment(context.Background(), r.Core, workers, nil); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			if !reflect.DeepEqual(got.compacted, r.Compacted) {
				t.Fatal("Workers=1: reverse-order pruning differs from the run's")
			}
			want = got
			continue
		}
		if !reflect.DeepEqual(got.compacted, want.compacted) {
			t.Errorf("Workers=%d: ReverseOrderCompact differs from Workers=1", workers)
		}
		if !reflect.DeepEqual(got.detSets, want.detSets) {
			t.Errorf("Workers=%d: DetectionSets differ from Workers=1", workers)
		}
		if !reflect.DeepEqual(got.obs, want.obs) {
			t.Errorf("Workers=%d: obs.Experiment differs from Workers=1", workers)
		}
	}
}

// TestPostRunStagesCancel: the stages that run on a finished Run stop on
// their caller's context. With a cancelled context each returns
// context.Canceled without simulating a single fault group. With a context
// that turns cancelled at the first or at the last check fsim makes before
// a batch, which falls in the stage's first or last simulation, each
// returns context.Canceled instead of a result, and so does the obs
// experiment or trace cut in its loop over the assignments.
func TestPostRunStagesCancel(t *testing.T) {
	r, err := RunCircuit("s298", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	stages := map[string]func(ctx context.Context, workers int) error{
		"obs.Experiment": func(ctx context.Context, workers int) error {
			_, err := obs.Experiment(ctx, r.Core, workers, nil)
			return err
		},
		"bist.RunWeightedSession": func(ctx context.Context, workers int) error {
			_, err := bist.RunWeightedSession(ctx, r.Core, r.Compacted, 16, workers, nil)
			return err
		},
		"ObsExperiment": func(ctx context.Context, workers int) error {
			_, err := ObsExperiment(r, Config{Workers: workers, Ctx: ctx})
			return err
		},
		"TraceRun": func(ctx context.Context, workers int) error {
			_, err := TraceRun(r, Config{Workers: workers, Ctx: ctx})
			return err
		},
	}
	// The checks of the simulations that precede each multi-run stage's
	// loop: core.DetectionSets for the obs experiment, the run of T for
	// the trace.
	sets := &cancelAfter{Context: context.Background(), n: -1}
	if _, err := core.DetectionSets(sets, r.Core, 1); err != nil {
		t.Fatal(err)
	}
	model, err := fault.ModelByName(r.Config.FaultModel)
	if err != nil {
		t.Fatal(err)
	}
	tRun := &cancelAfter{Context: context.Background(), n: -1}
	fsim.Run(r.Circuit, r.T, fault.CollapsedUniverseFor(r.Circuit, model), fsim.Options{Init: r.Init, Workers: 1, Ctx: tRun})
	beforeLoop := map[string]int64{
		"obs.Experiment": sets.calls.Load(),
		"ObsExperiment":  sets.calls.Load(),
		"TraceRun":       tRun.calls.Load(),
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for name, stage := range stages {
		before := telemetry.Counters()
		if err := stage(cancelled, 2); !errors.Is(err, context.Canceled) {
			t.Errorf("%s, cancelled context: error %v, want context.Canceled", name, err)
		}
		d := telemetry.Counters().Sub(before)
		if n := d.Get(telemetry.CtrGroupPasses) + d.Get(telemetry.CtrVectors); n != 0 {
			t.Errorf("%s, cancelled context: %d group passes and vectors simulated, want none", name, n)
		}

		// At Workers=1 fsim checks the context once on entry to a run and
		// once before each batch, so the second check and the last one
		// each skip a batch: of the stage's first run and of its last. Two
		// checks past the simulations that precede a stage's loop, the cut
		// skips a batch of the loop's first run.
		count := &cancelAfter{Context: context.Background(), n: -1}
		if err := stage(count, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cuts := []int64{2, count.calls.Load()}
		if n, ok := beforeLoop[name]; ok {
			cuts = append(cuts, n+2)
		}
		for _, n := range cuts {
			ctx := &cancelAfter{Context: context.Background(), n: n}
			if err := stage(ctx, 1); !errors.Is(err, context.Canceled) {
				t.Errorf("%s, context cancelled at check %d of %d: error %v, want context.Canceled",
					name, n, count.calls.Load(), err)
			}
		}
	}
}

// cancelAfter is a context that reports itself cancelled from its n-th
// Done call on (never, for n < 1) and counts the calls.
type cancelAfter struct {
	context.Context
	n     int64
	calls atomic.Int64
}

func (c *cancelAfter) Done() <-chan struct{} {
	if k := c.calls.Add(1); c.n >= 1 && k >= c.n {
		return closedChan
	}
	return nil
}

func (c *cancelAfter) Err() error {
	if c.n >= 1 && c.calls.Load() >= c.n {
		return context.Canceled
	}
	return nil
}

var closedChan = func() chan struct{} {
	ch := make(chan struct{})
	close(ch)
	return ch
}()
