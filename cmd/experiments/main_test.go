package main

import (
	"testing"

	"repro"
)

// TestModelCoverage runs the models section (full pipeline per fault model
// on s298 and s344) with a short generator window; it must render without
// error — the per-model numbers themselves are pinned by the golden tests.
func TestModelCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six full pipelines")
	}
	if err := modelCoverage(wbist.Config{LG: 120, Seed: 1, Workers: 2}); err != nil {
		t.Fatal(err)
	}
}
