// Package wgen synthesizes the on-chip test-sequence generator hardware of
// the paper: the per-length weight FSMs of Section 3 (Table 3) and the
// complete generator of Section 4.4 (Figure 1) — weight FSMs, an
// assignment-selection counter that advances every L_G clock cycles, and a
// multiplexer network routing the selected subsequence to each CUT input.
//
// The generator is emitted as an ordinary gate-level circuit (package
// circuit), so it can be simulated with the same simulators as the CUT; the
// synthesis is verified end-to-end by comparing the simulated generator
// outputs with the software-generated weighted sequences.
package wgen

import (
	"fmt"
	"sort"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/lfsr"
)

// namer hands out unique node names with a common prefix.
type namer struct {
	n int
}

func (nm *namer) fresh(tag string) string {
	nm.n++
	return fmt.Sprintf("%s_%d", tag, nm.n)
}

// builderCtx bundles the builder state shared by the synthesis helpers.
type builderCtx struct {
	b    *circuit.Builder
	nm   *namer
	one  string // node constantly 1 (the EN input, asserted during test)
	zero string // node constantly 0
}

func newCtx(name string) *builderCtx {
	b := circuit.NewBuilder(name)
	ctx := &builderCtx{b: b, nm: &namer{}}
	// The generator has a single primary input EN which must be held at 1
	// for the duration of the test session; it doubles as the constant-1
	// source, with its inversion as constant 0.
	b.Input("EN")
	ctx.one = "EN"
	ctx.zero = "EN_n"
	b.Gate("EN_n", circuit.Not, "EN")
	return ctx
}

// counter synthesizes a mod-m counter with enable en and synchronous clear
// clr (clr wins over counting). It returns the state bit node names (LSB
// first) and the wrap signal (high during the cycle in which the counter
// holds m-1 and en is high).
func (ctx *builderCtx) counter(tag string, m int, en, clr string) (bits []string, wrap string) {
	if m < 2 {
		// A mod-1 counter has no state; it wraps every enabled cycle.
		return nil, en
	}
	n := ceilLog2(m)
	b := ctx.b
	state := make([]string, n)
	for i := 0; i < n; i++ {
		state[i] = ctx.nm.fresh(tag + "_s")
	}
	// Carry chain: c0 = en, c_{i+1} = c_i AND s_i.
	carry := make([]string, n)
	carry[0] = en
	for i := 1; i < n; i++ {
		carry[i] = ctx.nm.fresh(tag + "_c")
		b.Gate(carry[i], circuit.And, carry[i-1], state[i-1])
	}
	// wrap = en AND (state == m-1).
	eqTerms := []string{en}
	for i := 0; i < n; i++ {
		if (m-1)>>i&1 == 1 {
			eqTerms = append(eqTerms, state[i])
		} else {
			inv := ctx.nm.fresh(tag + "_eqn")
			b.Gate(inv, circuit.Not, state[i])
			eqTerms = append(eqTerms, inv)
		}
	}
	wrap = ctx.nm.fresh(tag + "_wrap")
	b.Gate(wrap, circuit.And, eqTerms...)
	// clear = clr OR wrap.
	clear := ctx.nm.fresh(tag + "_clr")
	if clr == "" {
		b.Gate(clear, circuit.Buf, wrap)
	} else {
		b.Gate(clear, circuit.Or, clr, wrap)
	}
	nclear := ctx.nm.fresh(tag + "_nclr")
	b.Gate(nclear, circuit.Not, clear)
	// s_i' = (s_i XOR c_i) AND NOT clear.
	for i := 0; i < n; i++ {
		x := ctx.nm.fresh(tag + "_x")
		b.Gate(x, circuit.Xor, state[i], carry[i])
		d := ctx.nm.fresh(tag + "_d")
		b.Gate(d, circuit.And, x, nclear)
		b.DFF(state[i], d)
	}
	return state, wrap
}

// outputLogic synthesizes z = α[state] as a sum of minterms over the counter
// state (Table 3's output columns). invBits caches per-bit inverters.
func (ctx *builderCtx) outputLogic(tag, alpha string, bits []string, invBits []string) string {
	b := ctx.b
	if len(bits) == 0 {
		// Single-state FSM: the output is the constant α[0].
		if alpha[0] == '1' {
			return ctx.one
		}
		return ctx.zero
	}
	var minterms []string
	for st := 0; st < len(alpha); st++ {
		if alpha[st] != '1' {
			continue
		}
		lits := make([]string, len(bits))
		for i := range bits {
			if st>>i&1 == 1 {
				lits[i] = bits[i]
			} else {
				lits[i] = invBits[i]
			}
		}
		var term string
		if len(lits) == 1 {
			term = lits[0]
		} else {
			term = ctx.nm.fresh(tag + "_mt")
			b.Gate(term, circuit.And, lits...)
		}
		minterms = append(minterms, term)
	}
	switch len(minterms) {
	case 0:
		return ctx.zero
	case 1:
		return minterms[0]
	default:
		z := ctx.nm.fresh(tag + "_z")
		b.Gate(z, circuit.Or, minterms...)
		return z
	}
}

// mux2 synthesizes m = sel ? b1 : b0.
func (ctx *builderCtx) mux2(tag, sel, nsel, b0, b1 string) string {
	b := ctx.b
	t0 := ctx.nm.fresh(tag + "_m0")
	b.Gate(t0, circuit.And, nsel, b0)
	t1 := ctx.nm.fresh(tag + "_m1")
	b.Gate(t1, circuit.And, sel, b1)
	m := ctx.nm.fresh(tag + "_m")
	b.Gate(m, circuit.Or, t0, t1)
	return m
}

// muxTree selects leaves[j] for select value j (LSB-first select bits).
// Out-of-range select values return the last leaf.
func (ctx *builderCtx) muxTree(tag string, leaves []string, sel, nsel []string) string {
	if len(leaves) == 1 {
		return leaves[0]
	}
	level := leaves
	for bit := 0; bit < len(sel); bit++ {
		var next []string
		for k := 0; k < len(level); k += 2 {
			if k+1 == len(level) {
				next = append(next, level[k])
				continue
			}
			next = append(next, ctx.mux2(tag, sel[bit], nsel[bit], level[k], level[k+1]))
		}
		level = next
		if len(level) == 1 {
			break
		}
	}
	return level[0]
}

func ceilLog2(m int) int {
	n := 0
	for 1<<n < m {
		n++
	}
	return n
}

// FSM is a synthesized weight FSM: one counter of length Len shared by all
// subsequences of that length, with one output per subsequence (Table 3).
type FSM struct {
	// Len is the subsequence length (number of reachable states).
	Len int
	// Subs lists the subsequences, parallel to Outputs.
	Subs []string
	// Outputs lists the node names of the FSM output functions.
	Outputs []string
	// StateBits is the number of state variables (⌈log2 Len⌉).
	StateBits int
}

// SynthesizeFSM builds a standalone circuit implementing one weight FSM for
// equal-length subsequences: after reset it produces subs[k] repeatedly on
// primary output Zk while EN is held at 1 (Section 3, Table 3).
func SynthesizeFSM(name string, subs []string) (*circuit.Circuit, *FSM, error) {
	if len(subs) == 0 {
		return nil, nil, fmt.Errorf("wgen: no subsequences")
	}
	l := len(subs[0])
	for _, s := range subs {
		if len(s) != l {
			return nil, nil, fmt.Errorf("wgen: subsequences of unequal length (%q vs %q)", subs[0], s)
		}
		if l == 0 {
			return nil, nil, fmt.Errorf("wgen: empty subsequence")
		}
	}
	ctx := newCtx(name)
	fsm := ctx.weightFSM("w", l, subs, "")
	for k, out := range fsm.Outputs {
		po := fmt.Sprintf("Z%d", k)
		ctx.b.Gate(po, circuit.Buf, out)
		ctx.b.Output(po)
	}
	c, err := ctx.b.Build()
	if err != nil {
		return nil, nil, err
	}
	return c, fsm, nil
}

// weightFSM synthesizes a weight FSM inside ctx: a mod-l counter (cleared by
// clr) and one output function per subsequence.
func (ctx *builderCtx) weightFSM(tag string, l int, subs []string, clr string) *FSM {
	bits, _ := ctx.counter(tag+"_cnt", l, ctx.one, clr)
	invBits := make([]string, len(bits))
	for i, s := range bits {
		invBits[i] = ctx.nm.fresh(tag + "_ni")
		ctx.b.Gate(invBits[i], circuit.Not, s)
	}
	fsm := &FSM{Len: l, StateBits: len(bits)}
	for _, alpha := range subs {
		out := ctx.outputLogic(tag, alpha, bits, invBits)
		fsm.Subs = append(fsm.Subs, alpha)
		fsm.Outputs = append(fsm.Outputs, out)
	}
	return fsm
}

// Generator is a synthesized full test-sequence generator (Figure 1,
// optionally preceded by pseudo-random LFSR windows — the paper's future-work
// extension).
type Generator struct {
	// Circuit is the gate-level netlist. Primary input EN must be held at 1;
	// primary output Ii drives CUT input i.
	Circuit *circuit.Circuit
	// NumAssignments is the number of weight assignments |Ω|.
	NumAssignments int
	// RandomWindows is the number of leading pseudo-random windows.
	RandomWindows int
	// LFSRWidth is the width of the on-chip random source (0 if none).
	LFSRWidth int
	// LG is the per-window sequence length.
	LG int
	// FSMs lists the shared per-length weight FSMs (after primitive-period
	// reduction), sorted by length.
	FSMs []*FSM
	// NumGates and NumDFFs summarise the hardware cost.
	NumGates, NumDFFs int
}

// Synthesize builds the Figure 1 generator for the weight assignments omega
// and window length lg (core.Result.WindowLen for a pipeline's Ω, the length
// its selection verified): a cycle counter advances every clock and wraps
// every lg cycles; the wrap clears all weight-FSM counters (each assignment window
// restarts every FSM, matching core.Assignment.GenSequence) and advances the
// assignment counter whose bits steer the per-input multiplexer trees.
func Synthesize(name string, omega []core.Assignment, lg int) (*Generator, error) {
	return SynthesizeSchedule(name, 0, omega, lg)
}

// SynthesizeSchedule builds a generator whose first randomWindows windows
// drive every CUT input from a free-running XNOR-feedback LFSR (reset to the
// all-zero state, which for XNOR feedback is a regular sequence state), and
// whose remaining windows apply the weight assignments as in Synthesize.
// This realises in hardware the core procedure's Options.RandomWindows
// extension.
func SynthesizeSchedule(name string, randomWindows int, omega []core.Assignment, lg int) (*Generator, error) {
	if len(omega) == 0 {
		return nil, fmt.Errorf("wgen: empty weight assignment set")
	}
	if lg < 2 {
		return nil, fmt.Errorf("wgen: LG must be at least 2, got %d", lg)
	}
	if randomWindows < 0 {
		return nil, fmt.Errorf("wgen: negative random window count %d", randomWindows)
	}
	numInputs := len(omega[0].Subs)
	for _, a := range omega {
		if err := a.Validate(numInputs); err != nil {
			return nil, err
		}
	}
	ctx := newCtx(name)
	b := ctx.b

	// Cycle counter mod lg; wraps every lg cycles.
	_, windowWrap := ctx.counter("cyc", lg, ctx.one, "")

	// Window counter: advances on windowWrap, free-running mod 2^bits.
	numAsn := len(omega)
	numWindows := randomWindows + numAsn
	selBits := ceilLog2(numWindows)
	var sel, nsel []string
	if selBits > 0 {
		asnBits, _ := ctx.counter("asn", 1<<selBits, windowWrap, "")
		sel = asnBits
		nsel = make([]string, len(sel))
		for i, s := range sel {
			nsel[i] = ctx.nm.fresh("asn_n")
			b.Gate(nsel[i], circuit.Not, s)
		}
	}

	// Free-running XNOR LFSR for the random windows.
	var lfsrStages []string
	lfsrWidth := 0
	if randomWindows > 0 {
		lfsrWidth = lfsr.RandomSourceWidth(numInputs)
		tapsPos, ok := lfsr.Taps(lfsrWidth)
		if !ok {
			return nil, fmt.Errorf("wgen: no taps for LFSR width %d", lfsrWidth)
		}
		lfsrStages = make([]string, lfsrWidth)
		for s := 0; s < lfsrWidth; s++ {
			lfsrStages[s] = fmt.Sprintf("lfsr_s%d", s)
		}
		tapNodes := make([]string, len(tapsPos))
		for k, t := range tapsPos {
			tapNodes[k] = lfsrStages[t-1]
		}
		fb := "lfsr_fb"
		b.Gate(fb, circuit.Xnor, tapNodes...)
		b.DFF(lfsrStages[0], fb)
		for s := 1; s < lfsrWidth; s++ {
			b.DFF(lfsrStages[s], lfsrStages[s-1])
		}
	}

	// One FSM per distinct primitive subsequence length; one output per
	// distinct primitive subsequence (Sections 3 and 5).
	byLen := map[int][]string{}
	seen := map[string]bool{}
	outOf := map[string]string{} // primitive subsequence -> output node
	for _, a := range omega {
		for _, s := range a.Subs {
			p := core.PrimitivePeriod(s)
			if !seen[p] {
				seen[p] = true
				byLen[len(p)] = append(byLen[len(p)], p)
			}
		}
	}
	var lengths []int
	for l := range byLen {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	g := &Generator{
		NumAssignments: numAsn,
		RandomWindows:  randomWindows,
		LFSRWidth:      lfsrWidth,
		LG:             lg,
	}
	for _, l := range lengths {
		// Window wrap clears the FSM counter so every assignment window
		// restarts every subsequence at its first bit.
		fsm := ctx.weightFSM(fmt.Sprintf("w%d", l), l, byLen[l], windowWrap)
		g.FSMs = append(g.FSMs, fsm)
		for k, p := range fsm.Subs {
			outOf[p] = fsm.Outputs[k]
		}
	}

	// Per-CUT-input multiplexer trees over all windows (random windows
	// first, then the weight assignments).
	for i := 0; i < numInputs; i++ {
		leaves := make([]string, 0, numWindows)
		for w := 0; w < randomWindows; w++ {
			leaves = append(leaves, lfsrStages[i%lfsrWidth])
		}
		for _, a := range omega {
			leaves = append(leaves, outOf[core.PrimitivePeriod(a.Subs[i])])
		}
		out := ctx.muxTree(fmt.Sprintf("mux_i%d", i), leaves, sel, nsel)
		po := fmt.Sprintf("I%d", i)
		b.Gate(po, circuit.Buf, out)
		b.Output(po)
	}

	c, err := b.Build()
	if err != nil {
		return nil, err
	}
	g.Circuit = c
	g.NumGates = c.NumGates()
	g.NumDFFs = c.NumDFFs()
	return g, nil
}
