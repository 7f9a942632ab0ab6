package fsim

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/randutil"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// specCand is a candidate of the directed-search-like loop of
// runSpecLoop: a random sequence evaluated against the faults the
// committed state leaves undetected.
type specCand struct {
	k      int
	seq    *sim.Sequence
	faults []fault.Fault
	idx    []int
	out    *Outcome
}

// runSpecLoop is a small accept-or-discard loop over Speculate: candidates
// are random sequences drawn in order from one rng and simulated against
// the faults still undetected; a candidate that detects one is accepted and
// drops its detections, and the candidates drawn after it are evaluated
// afresh against the new state, not drawn again. It returns the log of
// commits, one line per candidate.
func runSpecLoop(c *circuit.Circuit, workers int) []string {
	faults := fault.CollapsedUniverse(c)
	undetected := make([]bool, len(faults))
	for i := range undetected {
		undetected[i] = true
	}
	rng := randutil.New(7)
	var drawn []*sim.Sequence
	var log []string
	k := 0 // index of the next candidate to commit
	s := New(c)
	Speculate(s, workers,
		func(ahead int) (*specCand, bool) {
			if k+ahead >= 40 {
				return nil, false
			}
			for len(drawn) <= ahead {
				drawn = append(drawn, sim.RandomSequence(rng, c.NumInputs(), 6))
			}
			cd := &specCand{k: k + ahead, seq: drawn[ahead]}
			for i, u := range undetected {
				if u {
					cd.faults = append(cd.faults, faults[i])
					cd.idx = append(cd.idx, i)
				}
			}
			return cd, true
		},
		func(ws *Simulator, cd *specCand) {
			cd.out = ws.Run(cd.seq, cd.faults, Options{Init: logic.Zero, Workers: workers})
		},
		func(cd *specCand) bool {
			drawn, k = drawn[1:], k+1
			if cd.k != len(log) {
				panic(fmt.Sprintf("candidate %d committed as the %d-th", cd.k, len(log)))
			}
			log = append(log, fmt.Sprintf("%d: %d of %d detected", cd.k, cd.out.NumDetected, len(cd.faults)))
			for j, d := range cd.out.Detected {
				if d {
					undetected[cd.idx[j]] = false
				}
			}
			return cd.out.NumDetected > 0
		})
	return log
}

// TestSpeculateMatchesSequential checks Speculate's contract on a loop with
// frequent acceptances: at every width the commits are the sequential
// loop's, every committed counter is the sequential loop's, and discarded
// evaluations show only on fsim.speculative_vectors (0 at width 1).
func TestSpeculateMatchesSequential(t *testing.T) {
	c := iscas.MustLoad("s298")
	committed := []telemetry.CounterID{
		telemetry.CtrGateEvals, telemetry.CtrVectors, telemetry.CtrGroupPasses,
		telemetry.CtrFaultsDropped, telemetry.CtrRepeatExits, telemetry.CtrGroupsCancelled,
	}
	var want []string
	var wantCtr []int64
	for _, workers := range []int{1, 2, 3, 4} {
		before := telemetry.Counters()
		got := runSpecLoop(c, workers)
		d := telemetry.Counters().Sub(before)
		var ctr []int64
		for _, id := range committed {
			ctr = append(ctr, d.Get(id))
		}
		spec := d.Get(telemetry.CtrSpeculativeVectors)
		if workers == 1 {
			want, wantCtr = got, ctr
			if spec != 0 {
				t.Errorf("Workers=1: fsim.speculative_vectors = %d, want 0", spec)
			}
			accepted := 0
			for _, l := range got {
				if !strings.HasPrefix(strings.SplitN(l, ": ", 2)[1], "0 of") {
					accepted++
				}
			}
			if accepted < 3 || accepted == len(got) {
				t.Fatalf("loop accepted %d of %d candidates: too few rejections or acceptances to test commit order", accepted, len(got))
			}
			continue
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("Workers=%d: commits differ from the sequential loop:\n got %q\nwant %q", workers, got, want)
		}
		for i, id := range committed {
			if ctr[i] != wantCtr[i] {
				t.Errorf("Workers=%d: %s = %d, want %d (committed work only)", workers, id.Name(), ctr[i], wantCtr[i])
			}
		}
		if spec == 0 {
			t.Errorf("Workers=%d: fsim.speculative_vectors = 0, want the vectors of the discarded candidates", workers)
		}
	}
}

// TestSpeculatePanicReachesCaller makes a candidate evaluated ahead of
// earlier uncommitted ones panic inside fsim (a fault with an out-of-range
// node id) on its speculation slot. The panic must be raised again on the
// calling goroutine, where it can be recovered, and the simulator must stay
// usable.
func TestSpeculatePanicReachesCaller(t *testing.T) {
	c := iscas.MustLoad("s298")
	good := fault.CollapsedUniverse(c)[:GroupSize]
	bad := append([]fault.Fault(nil), good...)
	bad[5].Node = circuit.NodeID(len(c.Nodes) + 7)
	seq := sim.RandomSequence(randutil.New(4), c.NumInputs(), 10)
	s := New(c)
	loop := func(poisoned int) {
		n := 0
		Speculate(s, 2,
			func(int) (int, bool) { n++; return n - 1, n <= 4 },
			func(ws *Simulator, k int) {
				fl := good
				if k == poisoned {
					fl = bad
				}
				ws.Run(seq, fl, Options{Init: logic.Zero})
			},
			func(int) bool { return false })
	}
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("Speculate returned normally over a panicking candidate")
			}
			if msg, ok := p.(string); !ok || !strings.Contains(msg, "index out of range") || !strings.Contains(msg, "speculation slot") {
				t.Fatalf("panic %v does not carry the slot's panic", p)
			}
		}()
		loop(1)
	}()
	loop(-1) // the slots survive the panic
}
