package atpg

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/iscas"
	"repro/internal/logic"
	"repro/internal/ref"
)

// TestLedgerMatchesRerun checks the detection ledger the generator carries
// from phase to phase: for every model, with and without compaction (and,
// under stuck-at, without the PODEM phase), Result.Detected and
// Result.DetTime must equal a fresh unsplit fault simulation of Result.Seq
// from time 0 by the ref oracle.
func TestLedgerMatchesRerun(t *testing.T) {
	circuits, seeds := []string{"s27", "s208", "s298"}, []uint64{1, 2}
	if testing.Short() {
		circuits, seeds = circuits[:2], seeds[:1]
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"default", Options{}},
		{"no-compaction", Options{NoCompaction: true}},
		{"no-podem", Options{NoDeterministicPhase: true}},
	}
	for _, name := range circuits {
		c := iscas.MustLoad(name)
		for _, m := range []fault.Model{fault.StuckAt{}, fault.Transition{}, fault.Bridging{}} {
			for _, seed := range seeds {
				for _, v := range variants {
					if _, stuckAt := m.(fault.StuckAt); v.opts.NoDeterministicPhase && !stuckAt {
						continue // PODEM only runs under stuck-at
					}
					opts := v.opts
					opts.Seed, opts.Model = seed, m
					opts.Init = []logic.V{logic.Zero, logic.X}[seed%2]
					checkLedger(t, fmt.Sprintf("%s/%s/seed %d/%s", name, m.Name(), seed, v.name), c, opts)
				}
			}
		}
	}
	// Here compaction turns two faults the uncompacted sequence leaves
	// undetected into detected ones, so the result depends on the final run
	// over the faults the ledger leaves undetected.
	checkLedger(t, "s386/stuck-at/seed 2", iscas.MustLoad("s386"), Options{Seed: 2, Init: logic.Zero})
}

// checkLedger generates a sequence under opts and compares its dictionary
// with the ref oracle's simulation of the sequence.
func checkLedger(t *testing.T, label string, c *circuit.Circuit, opts Options) {
	t.Helper()
	r := Generate(c, opts)
	want := ref.Run(c, r.Seq, r.Faults, ref.Options{Init: opts.Init})
	if slices.Equal(r.Detected, want.Detected) && slices.Equal(r.DetTime, want.DetTime) &&
		r.NumDetected == want.NumDetected {
		return
	}
	for i := range r.Faults {
		if r.DetTime[i] != want.DetTime[i] {
			t.Fatalf("%s: fault %d (%s): ledger time %d, rerun %d",
				label, i, r.Faults[i].String(c), r.DetTime[i], want.DetTime[i])
		}
	}
	t.Fatalf("%s: ledger detects %d, rerun %d", label, r.NumDetected, want.NumDetected)
}

// TestPodemDropsDetected checks the ledger after the PODEM phase: a fault a
// PODEM window detects leaves play, so no fault in play has a detection
// time. s382 at seed 2 is a run where PODEM windows detect faults; there a
// detected fault left in play used up podemTargets budget and could get a
// useless window appended.
func TestPodemDropsDetected(t *testing.T) {
	cases := []struct {
		circuit string
		seed    uint64
	}{{"s382", 2}, {"s298", 1}, {"s386", 2}}
	windows := 0
	for _, tc := range cases {
		c := iscas.MustLoad(tc.circuit)
		opts := Options{Seed: tc.seed, Init: logic.Zero, Model: fault.StuckAt{}}
		opts.fill(c)
		faults := fault.CollapsedUniverseFor(c, opts.Model)
		s := fsim.New(c)
		seq, l := search(c, s, faults, opts, nil)
		before := seq.Len()
		seq = deterministicPhase(c, s, seq, l, opts)
		if seq.Len() > before {
			windows++
		}
		for j, i := range l.idx {
			if l.det[i] >= 0 {
				t.Errorf("%s seed %d: fault %v is still in play after the PODEM phase but detected at %d", tc.circuit, tc.seed, l.faults[j], l.det[i])
			}
		}
	}
	if windows == 0 {
		t.Fatal("no PODEM window was appended in any case: the check is vacuous")
	}
}
