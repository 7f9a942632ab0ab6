package ref

import (
	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// simulateBridge runs one machine carrying a single 2-node bridging fault
// (fault.KindBridge): every time unit is evaluated twice. The first pass is
// nominal and resolves the wired value of the bridged pair (the model's
// enumeration guarantees neither stem combinationally reaches the other, so
// the nominal driver values are independent of the bridge force); the
// second pass re-evaluates the whole cycle with both stems held at that
// wired value, and detection plus the state capture read the second pass.
// This restates the fsim two-pass contract independently of fsim.
func simulateBridge(c *circuit.Circuit, seq *sim.Sequence, init logic.V,
	f fault.Fault, golden [][]logic.V, keepGoing bool) (detTime int, final []logic.V) {

	vals := make([]logic.V, len(c.Nodes))
	state := make([]logic.V, len(c.DFFs))
	for i := range state {
		state[i] = init
	}
	a, b := f.Node, f.Node2
	wiredOr := f.Stuck == 1
	var in []logic.V
	pass := func(u int, bridged bool, wired logic.V) {
		place := func(id circuit.NodeID, v logic.V) logic.V {
			if bridged && (id == a || id == b) {
				return wired
			}
			return v
		}
		for k, id := range c.Inputs {
			vals[id] = place(id, seq.At(u, k))
		}
		for k, id := range c.DFFs {
			vals[id] = place(id, state[k])
		}
		for _, id := range c.Order {
			n := &c.Nodes[id]
			in = in[:0]
			for _, fn := range n.Fanins {
				in = append(in, vals[fn])
			}
			vals[id] = place(id, eval(n.Type, in))
		}
	}
	detTime = -1
	for u := 0; u < seq.Len(); u++ {
		pass(u, false, logic.X)
		var wired logic.V
		if wiredOr {
			wired = orT[vals[a]][vals[b]]
		} else {
			wired = andT[vals[a]][vals[b]]
		}
		pass(u, true, wired)
		if detTime < 0 {
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
		// Clock edge (bridge faults are stem-only: no D-pin forcing).
		for k, id := range c.DFFs {
			state[k] = vals[c.Nodes[id].Fanins[0]]
		}
	}
	return detTime, state
}
