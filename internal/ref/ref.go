// Package ref is a deliberately naive reference fault simulator: one fault
// at a time, one machine at a time, scalar three-valued evaluation through
// explicit truth tables. It shares no evaluation code with the bit-parallel
// simulator (package fsim) or the scalar logic simulator (package sim) —
// gate semantics are restated here from the ternary truth tables — so an
// agreement between ref and fsim is evidence of correctness rather than of
// shared bugs. Package difftest cross-checks the two on random circuits.
// All three fault models are covered: stuck-at faults here, launch-on-
// capture transition faults in transition.go and 2-node bridging faults in
// bridge.go, each restating its model's semantics independently of the
// fsim injection hooks.
//
// The oracle contract (see DESIGN.md): for the same circuit, sequence,
// fault list and flip-flop initialisation, ref and fsim must report
// bit-identical Detected, DetTime and final machine states (flip-flops and
// transition launch history). Features that
// exist purely for performance or orchestration (fault grouping, Workers,
// ObserveLines, OutputHook, AbortAfterFirstGroupIfNone, InitialStates) are
// deliberately out of ref's scope: the continuation features are instead
// validated differentially by replaying a split fsim run against an unsplit
// ref run.
package ref

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// Options control a reference run. The fields mirror the subset of
// fsim.Options that affects simulation semantics.
type Options struct {
	// Init is the initial value of every flip-flop.
	Init logic.V
	// StopTime, if positive, truncates the sequence after this many time
	// units.
	StopTime int
	// SaveStates records final flip-flop states (and forces every machine to
	// simulate the whole sequence even after detection).
	SaveStates bool
	// TimeOffset is added to every recorded detection time.
	TimeOffset int
}

// Outcome reports a reference run. It matches fsim.Outcome fault for fault;
// final states are kept per machine (scalar) rather than per packed group.
type Outcome struct {
	// Detected[i] reports whether faults[i] was detected.
	Detected []bool
	// DetTime[i] is the first detection time of faults[i] (-1 if undetected).
	DetTime []int
	// NumDetected is the number of detected faults.
	NumDetected int
	// FinalStates[i] is the faulty machine i's final flip-flop state (only
	// when SaveStates was set).
	FinalStates [][]logic.V
	// FaultFreeFinal is the fault-free machine's final flip-flop state (only
	// when SaveStates was set).
	FaultFreeFinal []logic.V
	// LaunchHistory[i] is the fault site's nominal value in the last time
	// unit when faults[i] is a transition fault, and X for every other fault
	// (only when SaveStates was set): the rest of the machine's state, which
	// a continuation must carry besides the flip-flops.
	LaunchHistory []logic.V
}

// Ternary truth tables, indexed by logic.V (Zero=0, One=1, X=2). These are
// restated from the definition of the three-valued algebra on purpose; they
// must not be derived from package logic's operations.
var (
	notT = [3]logic.V{logic.One, logic.Zero, logic.X}
	andT = [3][3]logic.V{
		{logic.Zero, logic.Zero, logic.Zero},
		{logic.Zero, logic.One, logic.X},
		{logic.Zero, logic.X, logic.X},
	}
	orT = [3][3]logic.V{
		{logic.Zero, logic.One, logic.X},
		{logic.One, logic.One, logic.One},
		{logic.X, logic.One, logic.X},
	}
	xorT = [3][3]logic.V{
		{logic.Zero, logic.One, logic.X},
		{logic.One, logic.Zero, logic.X},
		{logic.X, logic.X, logic.X},
	}
)

// eval evaluates one gate over ternary fanin values using the truth tables.
func eval(t circuit.GateType, in []logic.V) logic.V {
	var v logic.V
	switch t {
	case circuit.Buf:
		return in[0]
	case circuit.Not:
		return notT[in[0]]
	case circuit.And, circuit.Nand:
		v = in[0]
		for _, x := range in[1:] {
			v = andT[v][x]
		}
		if t == circuit.Nand {
			v = notT[v]
		}
	case circuit.Or, circuit.Nor:
		v = in[0]
		for _, x := range in[1:] {
			v = orT[v][x]
		}
		if t == circuit.Nor {
			v = notT[v]
		}
	case circuit.Xor, circuit.Xnor:
		v = in[0]
		for _, x := range in[1:] {
			v = xorT[v][x]
		}
		if t == circuit.Xnor {
			v = notT[v]
		}
	default:
		panic(fmt.Sprintf("ref: eval on non-gate type %v", t))
	}
	return v
}

// Run simulates every fault independently against seq and returns the
// outcome. Cost is O(faults × time units × gates) — naive by design.
func Run(c *circuit.Circuit, seq *sim.Sequence, faults []fault.Fault, opts Options) *Outcome {
	stop := seq.Len()
	if opts.StopTime > 0 && opts.StopTime < stop {
		stop = opts.StopTime
	}
	out := &Outcome{
		Detected: make([]bool, len(faults)),
		DetTime:  make([]int, len(faults)),
	}
	for i := range out.DetTime {
		out.DetTime[i] = -1
	}
	if opts.SaveStates {
		out.FinalStates = make([][]logic.V, len(faults))
		out.LaunchHistory = make([]logic.V, len(faults))
	}

	// Fault-free pass: record the golden primary-output trace (the detection
	// reference) and, if asked, the golden final state.
	golden := make([][]logic.V, stop)
	_, ffFinal := simulate(c, seq, stop, opts.Init, nil, golden, opts.SaveStates)
	if opts.SaveStates {
		out.FaultFreeFinal = ffFinal
	}

	for i := range faults {
		var det int
		var final []logic.V
		history := logic.X
		switch faults[i].Kind {
		case fault.KindTransition:
			det, final, history = simulateTransition(c, seq, stop, opts.Init, faults[i], golden, opts.SaveStates)
		case fault.KindBridge:
			det, final = simulateBridge(c, seq, stop, opts.Init, faults[i], golden, opts.SaveStates)
		default:
			det, final = simulate(c, seq, stop, opts.Init, &faults[i], golden, opts.SaveStates)
		}
		if det >= 0 {
			out.Detected[i] = true
			out.DetTime[i] = det + opts.TimeOffset
			out.NumDetected++
		}
		if opts.SaveStates {
			out.FinalStates[i] = final
			out.LaunchHistory[i] = history
		}
	}
	return out
}

// simulate runs one machine. With f == nil it is the fault-free machine:
// golden (len stop) receives a copy of the primary-output values of every
// time unit. With f != nil the machine carries that single fault and golden
// is read as the fault-free trace; detTime is the first time unit at which
// some primary output is binary in both machines with opposite values (-1 if
// never). The run stops at the first detection unless keepGoing is set.
// final is the flip-flop state after the last clock edge (nil if the run
// stopped early — it is only meaningful when the whole sequence was applied,
// and keepGoing guarantees that).
func simulate(c *circuit.Circuit, seq *sim.Sequence, stop int, init logic.V,
	f *fault.Fault, golden [][]logic.V, keepGoing bool) (detTime int, final []logic.V) {

	vals := make([]logic.V, len(c.Nodes))
	state := make([]logic.V, len(c.DFFs))
	for i := range state {
		state[i] = init
	}
	// stuck applies the fault's stem force at node id (stem faults override
	// the computed value of any node: input, flip-flop output or gate).
	stuck := func(id circuit.NodeID, v logic.V) logic.V {
		if f != nil && f.Pin < 0 && f.Node == id {
			return logic.V(f.Stuck)
		}
		return v
	}
	var in []logic.V
	detTime = -1
	for u := 0; u < stop; u++ {
		for k, id := range c.Inputs {
			vals[id] = stuck(id, seq.At(u, k))
		}
		for k, id := range c.DFFs {
			vals[id] = stuck(id, state[k])
		}
		for _, id := range c.Order {
			n := &c.Nodes[id]
			in = in[:0]
			for pin, fn := range n.Fanins {
				v := vals[fn]
				// Branch (pin) faults force the value seen by this one pin.
				if f != nil && f.Pin == pin && f.Node == id {
					v = logic.V(f.Stuck)
				}
				in = append(in, v)
			}
			vals[id] = stuck(id, eval(n.Type, in))
		}
		if f == nil {
			po := make([]logic.V, len(c.Outputs))
			for k, id := range c.Outputs {
				po[k] = vals[id]
			}
			golden[u] = po
		} else if detTime < 0 {
			for k, id := range c.Outputs {
				g, v := golden[u][k], vals[id]
				if g != logic.X && v != logic.X && g != v {
					detTime = u
					break
				}
			}
			if detTime >= 0 && !keepGoing {
				return detTime, nil
			}
		}
		// Clock edge: flip-flop D-pin faults (pin 0 of a DFF node) force the
		// captured next-state value.
		for k, id := range c.DFFs {
			d := vals[c.Nodes[id].Fanins[0]]
			if f != nil && f.Node == id && f.Pin == 0 {
				d = logic.V(f.Stuck)
			}
			state[k] = d
		}
	}
	return detTime, state
}
