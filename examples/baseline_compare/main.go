// baseline_compare: the proposed subsequence-weight method against the two
// classic BIST baselines the paper positions itself against —
//
//   - pure pseudo-random testing from an LFSR (references [16][17]: no
//     storage, but no coverage guarantee), and
//   - the 3-weight {0, 0.5, 1} scheme of reference [10], extended to
//     sequential circuits by intersecting windows of the deterministic
//     sequence.
//
// All methods get the same total pattern budget. The proposed method reaches
// the deterministic sequence's coverage by construction; the baselines
// plateau below it because a static (or 3-weight) input distribution cannot
// reproduce the time-varying subsequences sequential faults need.
//
//	go run ./examples/baseline_compare [circuit ...]
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/lfsr"
	"repro/internal/tables"
	"repro/internal/threeweight"
)

func main() {
	names := os.Args[1:]
	if len(names) == 0 {
		// cmphard is the random-pattern-resistant workload (a 16-bit
		// comparator gating a counter) where the baselines collapse and the
		// proposed method's guarantee shows.
		names = []string{"s298", "s344", "cmphard"}
	}
	t := tables.New("Coverage of the deterministic sequence's faults (percent)",
		"circuit", "targets", "budget", "proposed", "lfsr", "3-weight")
	for _, name := range names {
		row, err := compare(name)
		if err != nil {
			log.Fatal(err)
		}
		t.Add(row...)
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func compare(name string) ([]string, error) {
	run, err := wbist.RunCircuit(name, wbist.Config{LG: 500, Seed: 1})
	if err != nil {
		return nil, err
	}
	budget := run.Core.WindowLen() * len(run.Compacted)

	// Pure pseudo-random: one LFSR sequence of the whole budget.
	src, err := lfsr.New(23, 0xBEEF)
	if err != nil {
		return nil, err
	}
	seq := src.Sequence(run.Circuit.NumInputs(), budget)
	det, _ := wbist.Simulate(run.Circuit, seq, run.Targets, run.Init)
	lfsrHits := 0
	for _, d := range det {
		if d {
			lfsrHits++
		}
	}

	// 3-weight [10]: assignments from windows of T around hard faults.
	as, err := threeweight.Derive(run.T, run.DetTimes, 8, len(run.Compacted))
	if err != nil {
		return nil, err
	}
	tw, err := threeweight.Evaluate(run.Circuit, as, run.Targets, budget/len(as), run.Init, 0xACE1)
	if err != nil {
		return nil, err
	}

	n := float64(len(run.Targets))
	return []string{
		name,
		tables.Int(len(run.Targets)),
		tables.Int(budget),
		tables.F1(100 * wbist.Table6(run).Coverage),
		tables.F1(100 * float64(lfsrHits) / n),
		tables.F1(100 * tw.Coverage(len(run.Targets))),
	}, nil
}

var _ = fmt.Sprintf
