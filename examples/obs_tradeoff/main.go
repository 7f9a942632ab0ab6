// obs_tradeoff: the Section 5 experiment — trading weight assignments for
// observation points.
//
// The full weight-assignment set Ω reaches 100% of the deterministic
// sequence's coverage, but a chip designer may prefer fewer assignments
// (less MUX/FSM hardware) plus a handful of observation points. This example
// reproduces the paper's Tables 7-16 trade-off curve for one circuit and
// names the chosen observation lines.
//
//	go run ./examples/obs_tradeoff [circuit]
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/tables"
)

func main() {
	name := "s344"
	if len(os.Args) > 1 {
		name = os.Args[1]
	}
	cfg := wbist.Config{LG: 500, Seed: 1}
	run, err := wbist.RunCircuit(name, cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := wbist.ObsExperiment(run, cfg)
	if err != nil {
		log.Fatal(err)
	}

	t := tables.New(fmt.Sprintf("Observation point insertion for %s", name),
		"seq", "sub", "len", "f.e.", "obs", "f.e.+obs")
	for _, row := range res.Rows {
		t.Add(tables.Int(row.Seq), tables.Int(row.Subs), tables.Int(row.Len),
			tables.F1(row.FE), tables.Int(row.Obs), tables.F1(row.FEObs))
	}
	if err := t.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Show the actual lines chosen for the smallest prefix that reaches 100%
	// fault efficiency with observation points.
	for k, row := range res.Rows {
		if row.FEObs >= 100 && row.Obs > 0 {
			fmt.Printf("\nwith %d assignment(s), 100%% fault efficiency needs %d observation point(s):\n",
				row.Seq, row.Obs)
			for _, id := range res.ObsLines[k] {
				fmt.Printf("  observe line %s\n", run.Circuit.Nodes[id].Name)
			}
			break
		}
	}
}
