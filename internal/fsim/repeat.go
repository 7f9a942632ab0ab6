package fsim

import (
	"slices"

	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
)

// repeatWatch implements the repeat exit of one fault-group pass (one slab
// lane). Every slot of a group is an independent deterministic machine, so
// once the fault-free machine and every live faulty machine are back in the
// state they had at an earlier time unit c, and the input vectors from the
// current time unit u on repeat those from c on, the rest of the pass
// replays [c, u) over and over. A live fault was not detected in [c, u), so
// it is never detected later either, and the pass can stop at the top of u
// with every detection already recorded.
//
// The checkpoint c follows Brent's schedule: it moves to u whenever u-c
// reaches a power of two, so a repetition with any lead-in and any period is
// found within a small multiple of their sum. A time unit costs one masked
// state compare; the input suffix is compared only when the state matches.
type repeatWatch struct {
	at    int       // checkpoint time unit c
	span  int       // the checkpoint moves when u-at reaches span
	state []logic.W // flip-flop words at the checkpoint
	prev  []logic.V // launch history of every transition site at the checkpoint
}

// repeats reports whether the pass may stop at the top of time unit u: the
// flip-flop words state[off], state[off+stride], ... (one per flip-flop)
// and the launch history of the transition sites agree with the checkpoint
// in every slot of mask, and the input vectors of seq from u up to stop
// repeat those from the checkpoint on. At u == 0 it only takes the first
// checkpoint.
func (r *repeatWatch) repeats(u int, state []logic.W, off, stride int, sites [][]transSite, mask uint64, seq *sim.Sequence, stop int) bool {
	if u == 0 {
		r.at, r.span = 0, 1
		r.save(state, off, stride, sites)
		return false
	}
	if r.matches(state, off, stride, sites, mask) && suffixRepeats(seq, r.at, u, stop) {
		return true
	}
	if u-r.at == r.span {
		r.at, r.span = u, 2*r.span
		r.save(state, off, stride, sites)
	}
	return false
}

func (r *repeatWatch) save(state []logic.W, off, stride int, sites [][]transSite) {
	r.state = r.state[:0]
	for i := off; i < len(state); i += stride {
		r.state = append(r.state, state[i])
	}
	r.prev = r.prev[:0]
	for _, ts := range sites {
		for _, t := range ts {
			r.prev = append(r.prev, t.prev)
		}
	}
}

func (r *repeatWatch) matches(state []logic.W, off, stride int, sites [][]transSite, mask uint64) bool {
	for k, i := 0, off; i < len(state); k, i = k+1, i+stride {
		w, c := state[i], r.state[k]
		if ((w.Zeros^c.Zeros)|(w.Ones^c.Ones))&mask != 0 {
			return false
		}
	}
	j := 0
	for _, ts := range sites {
		for _, t := range ts {
			if t.mask&mask != 0 && t.prev != r.prev[j] {
				return false
			}
			j++
		}
	}
	return true
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
// whose sites reach no primary output is never detected, and the event
// kernel does not even inject it (its slot mirrors the fault-free machine),
// so leaving it out keeps the exit point the same on every kernel.
func (s *Simulator) repeatSlots(faults []fault.Fault) uint64 {
	det := s.cone.Detectable
	var m uint64
	for k, f := range faults {
		if det[f.Node] || f.Kind == fault.KindBridge && det[f.Node2] {
			m |= 1 << uint(k+1)
		}
	}
	return m
}
