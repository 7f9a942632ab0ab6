package expt

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/iscas"
	"repro/internal/telemetry"
)

// TestSpeculationDeterministic runs full pipelines at Workers 1, 2 and 4,
// where the candidate loops of directed search, compaction and weight
// selection evaluate up to Workers candidates at once (fsim.Speculate). T,
// its detection times, Ω with its per-assignment provenance, the weight set
// S and the compacted Ω must be identical at every width, and so must every committed
// work counter. The slab_* counters are left out: the slab kernel's lane
// width follows Workers by design, with or without speculation. Discarded
// speculation shows only on fsim.speculative_vectors, which must stay 0 at
// Workers=1 and move at some wider setting.
//
// The counters are process-global, so this test must not run beside another
// counter-moving test (no t.Parallel).
func TestSpeculationDeterministic(t *testing.T) {
	committed := []telemetry.CounterID{
		telemetry.CtrGateEvals, telemetry.CtrGatesSkipped, telemetry.CtrVectors,
		telemetry.CtrGroupPasses, telemetry.CtrFaultsDropped, telemetry.CtrRepeatExits,
		telemetry.CtrGroupsCancelled, telemetry.CtrSweepFallbacks,
		telemetry.CtrCandidates, telemetry.CtrBacktracks,
	}
	var wasted int64
	for _, name := range []string{"s208", "s298"} {
		c, err := iscas.Load(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, model := range []string{"stuck-at", "transition", "bridge"} {
			var want, wantCtr string
			for _, workers := range []int{1, 2, 4} {
				label := fmt.Sprintf("%s/%s/Workers=%d", name, model, workers)
				before := telemetry.Counters()
				r, err := RunPipeline(c, InitFor(name), Config{Seed: 1, FaultModel: model, Workers: workers})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				d := telemetry.Counters().Sub(before)
				got := fmt.Sprintf("T=%s\ndet=%v\nomega=%v\ntraces=%v\nS=%v\ncompacted=%v\nunreproduced=%d",
					r.T, r.DetTimes, r.Core.Omega, r.Core.Traces, r.Core.S.Subs, r.Compacted, r.Core.Unreproduced)
				var ctr string
				for _, id := range committed {
					ctr += fmt.Sprintf("%s=%d ", id.Name(), d.Get(id))
				}
				spec := d.Get(telemetry.CtrSpeculativeVectors)
				if workers == 1 {
					want, wantCtr = got, ctr
					if spec != 0 {
						t.Errorf("%s: fsim.speculative_vectors = %d, want 0", label, spec)
					}
					continue
				}
				wasted += spec
				if got != want {
					t.Errorf("%s: pipeline output differs from Workers=1", label)
				}
				if ctr != wantCtr {
					t.Errorf("%s: committed counters differ from Workers=1:\n got %s\nwant %s", label, ctr, wantCtr)
				}
			}
		}
	}
	if wasted == 0 {
		t.Error("fsim.speculative_vectors stayed 0 at Workers 2 and 4: nothing was evaluated speculatively")
	}
}

// TestSpeculationCancels cancels Workers=2 pipelines at several points of
// their run, so that the cancellation lands in the speculative loops at
// some of them: RunPipeline must return context.Canceled soon after.
func TestSpeculationCancels(t *testing.T) {
	c, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	for _, model := range []string{"stuck-at", "transition"} {
		for _, after := range []time.Duration{2 * time.Millisecond, 20 * time.Millisecond, 80 * time.Millisecond} {
			ctx, cancel := context.WithCancel(context.Background())
			cancelled := make(chan time.Time, 1)
			timer := time.AfterFunc(after, func() { cancel(); cancelled <- time.Now() })
			_, err := RunPipeline(c, InitFor("s298"), Config{Seed: 1, FaultModel: model, Workers: 2, Ctx: ctx})
			returned := time.Now()
			timer.Stop()
			cancel()
			if err == nil {
				continue // the pipeline finished before the cancellation
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s, cancelled after %v: err = %v, want context.Canceled", model, after, err)
			}
			if late := returned.Sub(<-cancelled); late > 2*time.Second {
				t.Errorf("%s, cancelled after %v: returned %v after the cancellation", model, after, late)
			}
		}
	}
}
