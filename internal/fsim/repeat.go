package fsim

import (
	"slices"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/sim"
)

// The repeat exit (slabRepeatExits). Every slot of a group is an
// independent deterministic machine, so once the fault-free machine and
// every live faulty machine are back in the state they had at an earlier
// time unit c, and the input vectors from the current time unit u on repeat
// those from c on, the rest of the pass replays [c, u) over and over. A live
// fault was not detected in [c, u), so it is never detected later either,
// and the group can stop at the top of u with every detection already
// recorded.
//
// The checkpoint c follows Brent's schedule: it moves to u whenever u-c
// reaches a power of two, so a repetition with any lead-in and any period is
// found within a small multiple of their sum. A time unit costs one masked
// state compare; the input suffix is compared only when the state matches.

// suffixRepeats reports whether seq's vectors u, u+1, ... to its end equal
// its vectors c, c+1, ... (c < u).
func suffixRepeats(seq *sim.Sequence, c, u int) bool {
	for k := 0; u+k < seq.Len(); k++ {
		if !slices.Equal(seq.Vecs[u+k], seq.Vecs[c+k]) {
			return false
		}
	}
	return true
}

// repeatSlots returns the slots (slot k+1 for faults[k]) whose machines the
// repeat exit must watch: those of faults that can ever be detected. A fault
// whose sites reach no primary output is never detected, so its machine
// need not repeat before the pass may stop.
func (s *Simulator) repeatSlots(faults []fault.Fault) uint64 {
	det := s.detectable
	var m uint64
	for k, f := range faults {
		if det[f.Node] || f.Kind == fault.KindBridge && det[f.Node2] {
			m |= 1 << uint(k+1)
		}
	}
	return m
}

// detectableNodes reports, per node, whether a fault effect originating
// there can reach a primary output through any path, including paths
// latched through flip-flops into later time frames: the reverse closure of
// the outputs over fanin edges, where a flip-flop's fanin (its D input)
// crosses the frame boundary and visited marking ends the feedback cycles.
func detectableNodes(c *circuit.Circuit) []bool {
	mark := make([]bool, len(c.Nodes))
	stack := append([]circuit.NodeID(nil), c.Outputs...)
	for _, id := range stack {
		mark[id] = true
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Nodes[id].Fanins {
			if !mark[f] {
				mark[f] = true
				stack = append(stack, f)
			}
		}
	}
	return mark
}
