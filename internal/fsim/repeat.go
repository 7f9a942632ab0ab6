package fsim

import (
	"slices"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// repeatWatch implements the repeat exit of one dense fault-group pass; the
// slab kernel evaluates the same rule per group against one checkpoint of
// its whole slab (slabRepeatExits). Every slot of a group is an independent
// deterministic machine, so once the fault-free machine and every live
// faulty machine are back in the state they had at an earlier time unit c,
// and the input vectors from the current time unit u on repeat those from
// c on, the rest of the pass replays [c, u) over and over. A live fault was
// not detected in [c, u), so it is never detected later either, and the
// pass can stop at the top of u with every detection already recorded.
//
// The checkpoint c follows Brent's schedule: it moves to u whenever u-c
// reaches a power of two, so a repetition with any lead-in and any period is
// found within a small multiple of their sum. A time unit costs one masked
// state compare; the input suffix is compared only when the state matches.
type repeatWatch struct {
	at    int       // checkpoint time unit c
	span  int       // the checkpoint moves when u-at reaches span
	state []logic.W // flip-flop words at the checkpoint
	hist  []logic.W // launch-history words of the transition sites at the checkpoint
}

// repeats reports whether the pass may stop at the top of time unit u: the
// flip-flop words state[off], state[off+stride], ... (one per flip-flop)
// and the launch-history words hist()[off], hist()[off+stride], ... (one
// per transition site entry, holding each site's history in its slots)
// agree with the checkpoint in every slot of mask, and the input vectors of
// seq from u up to stop repeat those from the checkpoint on. At u == 0 it
// only takes the first checkpoint. hist is called only when the history is
// needed: to take a checkpoint, or once the flip-flops match.
func (r *repeatWatch) repeats(u int, state []logic.W, hist func() []logic.W, off, stride int, mask uint64, seq *sim.Sequence, stop int) bool {
	if u == 0 {
		r.at, r.span = 0, 1
		r.state = gather(r.state, state, off, stride)
		r.hist = gather(r.hist, hist(), off, stride)
		return false
	}
	if matches(r.state, state, off, stride, mask) && matches(r.hist, hist(), off, stride, mask) &&
		suffixRepeats(seq, r.at, u, stop) {
		return true
	}
	if u-r.at == r.span {
		r.at, r.span = u, 2*r.span
		r.state = gather(r.state, state, off, stride)
		r.hist = gather(r.hist, hist(), off, stride)
	}
	return false
}

// gather copies the words src[off], src[off+stride], ... into dst.
func gather(dst, src []logic.W, off, stride int) []logic.W {
	dst = dst[:0]
	for i := off; i < len(src); i += stride {
		dst = append(dst, src[i])
	}
	return dst
}

// matches reports whether the words src[off], src[off+stride], ... equal
// the checkpoint words in every slot of mask.
func matches(check, src []logic.W, off, stride int, mask uint64) bool {
	for k, i := 0, off; i < len(src); k, i = k+1, i+stride {
		w, c := src[i], check[k]
		if ((w.Zeros^c.Zeros)|(w.Ones^c.Ones))&mask != 0 {
			return false
		}
	}
	return true
}

// denseHistory packs the launch history of the dense kernel's current group
// into one word per transition site, the history in the site's slot (nil
// for a group without transition faults).
func (s *Simulator) denseHistory() []logic.W {
	s.hist = s.hist[:0]
	for _, sites := range s.transSites {
		for _, t := range sites {
			s.hist = append(s.hist, forceV(logic.W{}, t.mask, t.prev))
		}
	}
	return s.hist
}

// suffixRepeats reports whether seq's vectors u, u+1, ..., stop-1 equal its
// vectors c, c+1, ... (c < u).
func suffixRepeats(seq *sim.Sequence, c, u, stop int) bool {
	for k := 0; u+k < stop; k++ {
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
