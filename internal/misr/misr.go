// Package misr implements multiple-input signature registers (MISRs), the
// standard BIST response compactor: circuit outputs are XORed into the
// stages of a maximal-length LFSR every clock cycle, and at the end of the
// test session only the final register contents (the signature) are compared
// against the fault-free golden signature.
//
// The paper leaves response evaluation unspecified; a MISR is what the
// surrounding BIST literature (and any adopter of the scheme) uses, so this
// package completes the on-chip loop: weight-FSM generator → CUT → MISR.
// A bit-parallel variant compacts the 64 machines of the fault simulator at
// once, so signature-based fault coverage (including aliasing) is measured
// directly.
package misr

import (
	"fmt"

	"repro/internal/lfsr"
	"repro/internal/logic"
)

// tapMask returns the feedback mask of a width-bit register over the
// maximal-length taps of package lfsr.
func tapMask(width int) (uint64, error) {
	positions, ok := lfsr.Taps(width)
	if !ok {
		return 0, fmt.Errorf("misr: unsupported width %d (have 3..24)", width)
	}
	var mask uint64
	for _, t := range positions {
		mask |= 1 << (t - 1)
	}
	return mask, nil
}

// MISR is a scalar signature register. Inputs wider than the register fold
// back onto the stages modulo the width. An unknown (X) input value taints
// the signature permanently: a tainted signature must not be compared.
type MISR struct {
	width   int
	tap     uint64
	state   uint64
	tainted bool
}

// New returns a width-bit MISR initialised to zero. Widths 3..24.
func New(width int) (*MISR, error) {
	mask, err := tapMask(width)
	if err != nil {
		return nil, err
	}
	return &MISR{width: width, tap: mask}, nil
}

// Reset clears the register and the taint flag.
func (m *MISR) Reset() {
	m.state = 0
	m.tainted = false
}

// Width returns the register width.
func (m *MISR) Width() int { return m.width }

// Shift clocks the register once, XORing the given response bits into the
// stages (bit i into stage i mod width).
func (m *MISR) Shift(bits []logic.V) {
	var in uint64
	for i, v := range bits {
		switch v {
		case logic.One:
			in ^= 1 << (uint(i) % uint(m.width))
		case logic.X:
			m.tainted = true
		}
	}
	fb := parity(m.state & m.tap)
	m.state = ((m.state<<1 | fb) & ((1 << m.width) - 1)) ^ in
}

// Signature returns the register contents and whether they are trustworthy
// (ok == false once an X was compacted).
func (m *MISR) Signature() (sig uint64, ok bool) {
	return m.state, !m.tainted
}

func parity(x uint64) uint64 {
	x ^= x >> 32
	x ^= x >> 16
	x ^= x >> 8
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return x & 1
}

// WordMISR compacts the 64 machines of a dual-rail fault-simulation word in
// parallel: stage s of machine k lives in slot k of word s. Slot 0 is the
// fault-free machine.
type WordMISR struct {
	width int
	tap   uint64
	state []logic.W
	// taint has a bit per slot; set once an X from that machine was
	// compacted.
	taint uint64
}

// NewWord returns a bit-parallel width-bit MISR with all stages at 0.
func NewWord(width int) (*WordMISR, error) {
	mask, err := tapMask(width)
	if err != nil {
		return nil, err
	}
	m := &WordMISR{width: width, tap: mask, state: make([]logic.W, width)}
	m.Reset()
	return m, nil
}

// Reset clears all stages to 0 and clears the taint mask.
func (m *WordMISR) Reset() {
	for i := range m.state {
		m.state[i] = logic.AllZero
	}
	m.taint = 0
}

// Shift clocks the register once with the given response words (word i feeds
// stage i mod width).
func (m *WordMISR) Shift(po []logic.W) {
	// Fold the inputs onto the stages.
	in := make([]logic.W, m.width)
	for i := range in {
		in[i] = logic.AllZero
	}
	for i, w := range po {
		m.taint |= ^(w.Zeros | w.Ones) // X slots
		in[i%m.width] = in[i%m.width].Xor(w)
	}
	// Feedback: XOR of the tapped stages.
	fb := logic.AllZero
	for s := 0; s < m.width; s++ {
		if m.tap&(1<<s) != 0 {
			fb = fb.Xor(m.state[s])
		}
	}
	// Shift up, inject feedback at stage 0, XOR the inputs in.
	next := make([]logic.W, m.width)
	next[0] = fb.Xor(in[0])
	for s := 1; s < m.width; s++ {
		next[s] = m.state[s-1].Xor(in[s])
	}
	m.state = next
}

// TaintMask returns the mask of slots whose signature is untrustworthy.
func (m *WordMISR) TaintMask() uint64 { return m.taint }

// DiffMask returns the mask of slots whose final signature differs from the
// fault-free slot 0 in at least one stage, excluding tainted slots (and
// returning 0 if slot 0 itself is tainted).
func (m *WordMISR) DiffMask() uint64 {
	if m.taint&1 != 0 {
		return 0
	}
	var diff uint64
	for _, w := range m.state {
		diff |= w.DiffMask()
	}
	return diff &^ m.taint
}

// SlotSignature extracts machine k's signature (stage s in bit s). The
// second result is false if the slot is tainted.
func (m *WordMISR) SlotSignature(k uint) (uint64, bool) {
	var sig uint64
	for s, w := range m.state {
		if w.Get(k) == logic.One {
			sig |= 1 << s
		}
	}
	return sig, m.taint&(1<<k) == 0
}
