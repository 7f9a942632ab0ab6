package misr

import (
	"testing"

	"repro/internal/logic"
	"repro/internal/randutil"
)

func TestScalarSignatureDeterministic(t *testing.T) {
	a, err := New(16)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := New(16)
	rng := randutil.New(1)
	for i := 0; i < 200; i++ {
		bits := []logic.V{logic.FromBit(rng.Bool()), logic.FromBit(rng.Bool())}
		a.Shift(bits)
		b.Shift(bits)
	}
	sa, oka := a.Signature()
	sb, okb := b.Signature()
	if sa != sb || !oka || !okb {
		t.Fatalf("signatures diverged: %x/%v vs %x/%v", sa, oka, sb, okb)
	}
}

func TestScalarSignatureSensitivity(t *testing.T) {
	// Flipping a single response bit must change the signature (no single
	// masking for a linear compactor fed once).
	rng := randutil.New(7)
	stream := make([][]logic.V, 100)
	for i := range stream {
		stream[i] = []logic.V{logic.FromBit(rng.Bool()), logic.FromBit(rng.Bool()), logic.FromBit(rng.Bool())}
	}
	golden, _ := New(12)
	for _, bits := range stream {
		golden.Shift(bits)
	}
	gs, _ := golden.Signature()
	// Flip one bit at several positions.
	for _, flipAt := range []int{0, 13, 57, 99} {
		m, _ := New(12)
		for i, bits := range stream {
			b := append([]logic.V(nil), bits...)
			if i == flipAt {
				b[1] = b[1].Not()
			}
			m.Shift(b)
		}
		fs, ok := m.Signature()
		if !ok {
			t.Fatal("tainted unexpectedly")
		}
		if fs == gs {
			t.Fatalf("single flip at %d aliased", flipAt)
		}
	}
}

func TestScalarTaint(t *testing.T) {
	m, _ := New(8)
	m.Shift([]logic.V{logic.One})
	if _, ok := m.Signature(); !ok {
		t.Fatal("clean register reported tainted")
	}
	m.Shift([]logic.V{logic.X})
	if _, ok := m.Signature(); ok {
		t.Fatal("X not tainting")
	}
	m.Reset()
	if _, ok := m.Signature(); !ok {
		t.Fatal("Reset did not clear taint")
	}
}

func TestUnsupportedWidth(t *testing.T) {
	if _, err := New(2); err == nil {
		t.Error("scalar width 2 accepted")
	}
	if _, err := NewWord(99); err == nil {
		t.Error("word width 99 accepted")
	}
}

func TestInputFolding(t *testing.T) {
	// 10 inputs into a 4-bit register must fold (i mod 4) and still work.
	m, _ := New(4)
	bits := make([]logic.V, 10)
	for i := range bits {
		bits[i] = logic.One
	}
	m.Shift(bits)
	sig, ok := m.Signature()
	if !ok {
		t.Fatal("tainted")
	}
	// stages 0,1 get 3 ones (odd -> 1), stages 2,3 get 2 ones (even -> 0);
	// initial state 0 so signature = 0b0011.
	if sig != 0b0011 {
		t.Fatalf("signature %04b, want 0011", sig)
	}
}

// TestWordMatchesScalar drives the word MISR and 64 scalar MISRs with the
// same per-slot streams and checks every slot signature matches.
func TestWordMatchesScalar(t *testing.T) {
	const width = 9
	const steps = 60
	const numPO = 5
	rng := randutil.New(42)
	wm, err := NewWord(width)
	if err != nil {
		t.Fatal(err)
	}
	scalars := make([]*MISR, 64)
	for k := range scalars {
		scalars[k], _ = New(width)
	}
	for u := 0; u < steps; u++ {
		po := make([]logic.W, numPO)
		perSlot := make([][]logic.V, 64)
		for k := range perSlot {
			perSlot[k] = make([]logic.V, numPO)
		}
		for i := 0; i < numPO; i++ {
			w := logic.AllX
			for k := uint(0); k < 64; k++ {
				var v logic.V
				switch rng.Intn(10) {
				case 0:
					v = logic.X
				default:
					v = logic.FromBit(rng.Bool())
				}
				w = w.Set(k, v)
				perSlot[k][i] = v
			}
			po[i] = w
		}
		wm.Shift(po)
		for k := range scalars {
			scalars[k].Shift(perSlot[k])
		}
	}
	for k := uint(0); k < 64; k++ {
		wantSig, wantOK := scalars[k].Signature()
		gotSig, gotOK := wm.SlotSignature(k)
		if gotOK != wantOK {
			t.Fatalf("slot %d taint mismatch: %v vs %v", k, gotOK, wantOK)
		}
		if wantOK && gotSig != wantSig {
			t.Fatalf("slot %d signature %x, want %x", k, gotSig, wantSig)
		}
	}
}

func TestWordDiffMask(t *testing.T) {
	wm, _ := NewWord(8)
	// Slot 1 differs from slot 0 in one response bit at one time unit.
	for u := 0; u < 20; u++ {
		w := logic.AllZero
		if u == 7 {
			w = w.Set(1, logic.One)
		}
		wm.Shift([]logic.W{w})
	}
	diff := wm.DiffMask()
	if diff != 0b10 {
		t.Fatalf("DiffMask = %b, want 10", diff)
	}
}

func TestWordDiffMaskTaintedReference(t *testing.T) {
	wm, _ := NewWord(8)
	w := logic.AllZero.Set(0, logic.X).Set(1, logic.One)
	wm.Shift([]logic.W{w})
	if wm.DiffMask() != 0 {
		t.Fatal("tainted reference must suppress all detections")
	}
	if wm.TaintMask()&1 == 0 {
		t.Fatal("slot 0 not marked tainted")
	}
}

func TestWordReset(t *testing.T) {
	wm, _ := NewWord(8)
	wm.Shift([]logic.W{logic.AllX})
	wm.Reset()
	if wm.TaintMask() != 0 {
		t.Fatal("Reset did not clear taint")
	}
	sig, ok := wm.SlotSignature(3)
	if sig != 0 || !ok {
		t.Fatal("Reset did not clear state")
	}
}

// TestScalarConstructedAliasing pins the classic MISR failure mode with a
// hand-built error pattern: for the width-3 register (taps 3,2) an error
// injected into stage 0 shifts to stage 1 one cycle later without touching
// the feedback, so a second error that hits exactly stage 1 at that cycle
// cancels the first. The two streams differ in two response bits yet compact
// to the same signature — aliasing by construction, not by search.
func TestScalarConstructedAliasing(t *testing.T) {
	const cycles = 6
	golden, _ := New(3)
	faulty, _ := New(3)
	zero := []logic.V{logic.Zero, logic.Zero, logic.Zero}
	differs := 0
	for u := 0; u < cycles; u++ {
		golden.Shift(zero)
		switch u {
		case 2:
			faulty.Shift([]logic.V{logic.One, logic.Zero, logic.Zero})
			differs++
		case 3:
			faulty.Shift([]logic.V{logic.Zero, logic.One, logic.Zero})
			differs++
		default:
			faulty.Shift(zero)
		}
	}
	gs, _ := golden.Signature()
	fs, _ := faulty.Signature()
	if differs != 2 {
		t.Fatalf("constructed %d differing cycles, want 2", differs)
	}
	if gs != fs {
		t.Fatalf("error pattern did not alias: golden %03b, faulty %03b", gs, fs)
	}
}

// TestScalarAliasingRate measures the aliasing probability empirically: a
// random nonzero error stream compacts to the zero (golden) signature with
// probability ≈ 2^-width. Width 3 must show ≈ 1/8; width 16 must make
// aliasing rare. Both sweeps are deterministic in the randutil seed.
func TestScalarAliasingRate(t *testing.T) {
	const trials = 2000
	aliases := func(width int, seed uint64) int {
		rng := randutil.New(seed)
		n := 0
		for trial := 0; trial < trials; trial++ {
			m, err := New(width)
			if err != nil {
				t.Fatal(err)
			}
			// 12 cycles of 2 response bits, at least one of them 1 so the
			// error stream is guaranteed nonzero (an all-zero "error" is not
			// an error and trivially matches).
			nonzero := false
			for u := 0; u < 12; u++ {
				bits := []logic.V{logic.FromBit(rng.Bool()), logic.FromBit(rng.Bool())}
				if u == 11 && !nonzero {
					bits[0] = logic.One
				}
				if bits[0] == logic.One || bits[1] == logic.One {
					nonzero = true
				}
				m.Shift(bits)
			}
			if sig, ok := m.Signature(); ok && sig == 0 {
				n++
			}
		}
		return n
	}
	if n3 := aliases(3, 0xa11a5); n3 < trials/16 || n3 > trials/4 {
		t.Errorf("width 3: %d/%d aliased, want ≈ %d (1/8)", n3, trials, trials/8)
	}
	if n16 := aliases(16, 0xa11a5); n16 > 5 {
		t.Errorf("width 16: %d/%d aliased, want ≈ 0 (2^-16 each)", n16, trials)
	}
}

// TestWordDiffMaskExcludesAliasedSlot drives the bit-parallel register with a
// faulty machine whose responses differ from the fault-free machine but whose
// errors cancel in the compactor (the constructed width-3 aliasing pattern),
// next to a faulty machine whose single error survives. DiffMask must report
// only the surviving slot: an aliased fault is genuinely lost by
// signature-based evaluation even though per-cycle comparison would catch it.
func TestWordDiffMaskExcludesAliasedSlot(t *testing.T) {
	wm, _ := NewWord(3)
	// Three response words = one per MISR stage. Slot 0 fault-free (all 0),
	// slot 1 the cancelling pair, slot 2 a lone error at t=2.
	for u := 0; u < 6; u++ {
		po := []logic.W{logic.AllZero, logic.AllZero, logic.AllZero}
		switch u {
		case 2:
			po[0] = po[0].Set(1, logic.One).Set(2, logic.One)
		case 3:
			po[1] = po[1].Set(1, logic.One)
		}
		wm.Shift(po)
	}
	if diff := wm.DiffMask(); diff != 0b100 {
		t.Fatalf("DiffMask = %03b, want 100 (slot 1 aliased, slot 2 detected)", diff)
	}
	// The per-slot signatures confirm why: slot 1 equals slot 0, slot 2 does
	// not.
	s0, _ := wm.SlotSignature(0)
	s1, _ := wm.SlotSignature(1)
	s2, _ := wm.SlotSignature(2)
	if s1 != s0 || s2 == s0 {
		t.Fatalf("signatures: slot0 %03b slot1 %03b slot2 %03b", s0, s1, s2)
	}
}

// TestWordMatchesScalarAliasing cross-checks the two MISR implementations on
// the aliasing question itself: for random per-slot streams, a slot aliases
// in the word register exactly when the equivalent scalar register aliases.
func TestWordMatchesScalarAliasing(t *testing.T) {
	const width = 4
	rng := randutil.New(0x5eed)
	for round := 0; round < 50; round++ {
		wm, _ := NewWord(width)
		scalars := make([]*MISR, 8)
		for k := range scalars {
			scalars[k], _ = New(width)
		}
		for u := 0; u < 16; u++ {
			po := make([]logic.W, 2)
			perSlot := make([][]logic.V, 8)
			for k := range perSlot {
				perSlot[k] = make([]logic.V, len(po))
			}
			for i := range po {
				w := logic.AllZero
				for k := uint(0); k < 8; k++ {
					v := logic.FromBit(rng.Bool())
					if k == 0 {
						v = logic.Zero // slot 0 is the quiet golden machine
					}
					w = w.Set(k, v)
					perSlot[k][i] = v
				}
				po[i] = w
			}
			wm.Shift(po)
			for k := range scalars {
				scalars[k].Shift(perSlot[k])
			}
		}
		diff := wm.DiffMask()
		g, _ := scalars[0].Signature()
		for k := uint(1); k < 8; k++ {
			s, _ := scalars[k].Signature()
			want := s != g
			if got := diff&(1<<k) != 0; got != want {
				t.Fatalf("round %d slot %d: word diff=%v, scalar diff=%v", round, k, got, want)
			}
		}
	}
}

// TestScalarFoldedTaint checks that an X arriving on a folded input position
// (index ≥ width) still taints, and that taint survives later binary cycles.
func TestScalarFoldedTaint(t *testing.T) {
	m, _ := New(3)
	bits := make([]logic.V, 5)
	for i := range bits {
		bits[i] = logic.Zero
	}
	bits[4] = logic.X // folds onto stage 4 mod 3 = 1
	m.Shift(bits)
	if _, ok := m.Signature(); ok {
		t.Fatal("X on a folded input did not taint")
	}
	for u := 0; u < 10; u++ {
		m.Shift([]logic.V{logic.One, logic.Zero, logic.One, logic.Zero, logic.One})
	}
	if _, ok := m.Signature(); ok {
		t.Fatal("taint did not persist across later binary cycles")
	}
}

// TestWordTaintIsPerSlot checks that an X in one machine poisons only that
// machine's signature, and that a faulty slot that would otherwise be
// detected is suppressed from DiffMask once tainted (a tainted signature
// cannot be trusted in either direction).
func TestWordTaintIsPerSlot(t *testing.T) {
	wm, _ := NewWord(8)
	for u := 0; u < 4; u++ {
		w := logic.AllZero
		if u == 1 {
			w = w.Set(3, logic.X)   // slot 3: unknown response
			w = w.Set(5, logic.One) // slot 5: real difference, then tainted below
			w = w.Set(6, logic.One) // slot 6: clean difference
		}
		if u == 2 {
			w = w.Set(5, logic.X)
		}
		wm.Shift([]logic.W{w})
	}
	if taint := wm.TaintMask(); taint != 1<<3|1<<5 {
		t.Fatalf("TaintMask = %b, want slots 3 and 5", taint)
	}
	if _, ok := wm.SlotSignature(3); ok {
		t.Fatal("tainted slot 3 reported trustworthy")
	}
	if _, ok := wm.SlotSignature(6); !ok {
		t.Fatal("clean slot 6 reported tainted")
	}
	if diff := wm.DiffMask(); diff != 1<<6 {
		t.Fatalf("DiffMask = %b, want only slot 6 (5 tainted, 3 tainted)", diff)
	}
}
