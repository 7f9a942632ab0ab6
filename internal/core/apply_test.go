package core

import (
	"testing"

	"repro/internal/fsim"
	"repro/internal/logic"
)

func TestConcatSequence(t *testing.T) {
	omega := []Assignment{
		{Subs: []string{"01", "1"}},
		{Subs: []string{"0", "10"}},
	}
	seq := ConcatSequence(omega, 4)
	if seq.Len() != 8 || seq.NumInputs != 2 {
		t.Fatalf("shape %dx%d", seq.Len(), seq.NumInputs)
	}
	// First window: input 0 follows 01, input 1 constant 1.
	if seq.At(0, 0) != logic.Zero || seq.At(1, 0) != logic.One || seq.At(3, 1) != logic.One {
		t.Fatal("first window wrong")
	}
	// Second window restarts the subsequences.
	if seq.At(4, 0) != logic.Zero || seq.At(4, 1) != logic.One || seq.At(5, 1) != logic.Zero {
		t.Fatal("second window wrong")
	}
}

func TestConcatSequenceEmpty(t *testing.T) {
	seq := ConcatSequence(nil, 10)
	if seq.Len() != 0 {
		t.Fatal("empty omega should give empty sequence")
	}
}

func TestPending(t *testing.T) {
	r := runS27(t, Options{LG: 100, Init: logic.X, Seed: 1})
	p := NewPending(r.TargetFaults)
	if p.Remaining() != len(r.TargetFaults) {
		t.Fatalf("remaining %d of %d", p.Remaining(), len(r.TargetFaults))
	}
	if !p.Drop(0) || p.Drop(0) || p.Remaining() != len(r.TargetFaults)-1 {
		t.Fatal("Drop must report and count a target once")
	}
	// T detects every target, and the simulation skips the dropped one.
	out, idx, n := p.Simulate(fsim.New(r.Circuit), r.T, fsim.Options{Init: r.Init})
	if len(idx) != len(r.TargetFaults)-1 || idx[0] != 1 || len(out.Detected) != len(idx) {
		t.Fatalf("simulated indices %v", idx)
	}
	if n != len(idx) || p.Remaining() != 0 {
		t.Fatalf("T dropped %d of %d, %d remain", n, len(idx), p.Remaining())
	}
	for i, u := range p.Undetected() {
		if u {
			t.Fatalf("target %d still undetected", i)
		}
	}
}
