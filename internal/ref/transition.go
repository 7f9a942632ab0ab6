package ref

import (
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// simulateTransition runs one machine carrying a single launch-on-capture
// transition fault (fault.KindTransition): the site's nominal value is
// tracked cycle to cycle, and whenever the previous cycle's nominal value
// was the binary complement of the destination d and this cycle's nominal
// value is d (the launch transition), the node is held at the old value for
// the whole cycle. The previous value starts at X, so time unit 0 never
// forces. This restates the fsim model hook contract independently — shared
// code would turn the differential check into a tautology. history is the
// site's nominal value in the last time unit (X after no time unit), the
// state a continuation would need besides final; like final it is only
// meaningful when keepGoing applied the whole sequence.
func simulateTransition(c *circuit.Circuit, seq *sim.Sequence, stop int, init logic.V,
	f fault.Fault, golden [][]logic.V, keepGoing bool) (detTime int, final []logic.V, history logic.V) {

	vals := make([]logic.V, len(c.Nodes))
	state := make([]logic.V, len(c.DFFs))
	for i := range state {
		state[i] = init
	}
	d := logic.V(f.Stuck)
	launch := notT[d]
	prev := logic.X
	// slow applies the transition hook at the fault site: decide the force
	// from the nominal value v, then advance the site history.
	slow := func(id circuit.NodeID, v logic.V) logic.V {
		if id != f.Node {
			return v
		}
		force := prev == launch && v == d
		prev = v
		if force {
			return launch
		}
		return v
	}
	var in []logic.V
	detTime = -1
	for u := 0; u < stop; u++ {
		for k, id := range c.Inputs {
			vals[id] = slow(id, seq.At(u, k))
		}
		for k, id := range c.DFFs {
			vals[id] = slow(id, state[k])
		}
		for _, id := range c.Order {
			n := &c.Nodes[id]
			in = in[:0]
			for _, fn := range n.Fanins {
				in = append(in, vals[fn])
			}
			vals[id] = slow(id, eval(n.Type, in))
		}
		if detTime < 0 {
			for k, id := range c.Outputs {
				g, v := golden[u][k], vals[id]
				if g != logic.X && v != logic.X && g != v {
					detTime = u
					break
				}
			}
			if detTime >= 0 && !keepGoing {
				return detTime, nil, prev
			}
		}
		// Clock edge (transition faults are stem-only: no D-pin forcing).
		for k, id := range c.DFFs {
			state[k] = vals[c.Nodes[id].Fanins[0]]
		}
	}
	return detTime, state, prev
}
