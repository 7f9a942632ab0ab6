package fsim

import (
	"math/bits"

	"repro/internal/logic"
	"repro/internal/obsv"
)

// traceActivity feeds one per-cycle switching-activity sample to a traced
// group-0 pass: the number of circuit nodes whose *fault-free* (slot 0)
// value changed between the previous simulated vector and this one.
//
// The metric deliberately looks only at slot 0: the fault-free machine is,
// by the kernels' bit-identity guarantee, the same everywhere, so the
// sample is deterministic across kernels, lane widths and worker counts. It
// is recorded for group 0 only (slot 0 is the same machine in every group).
//
// Both rails are packed into bitsets (a node counts as changed on any
// 0/1/X transition) and diffed with XOR+popcount; the O(nodes) cost is paid
// per cycle only when a trace is attached, leaving the untraced hot loops
// untouched.
//
// vals holds the node values at a stride: slot 0 of the node at index i is
// bit 0 of vals[i*stride]. The dense kernel passes its one-word-per-node
// array with stride 1, the slab kernel its row-major slab with stride lanes
// (lane 0 of batch 0 holds group 0's fault-free machine, before and after a
// repack). The count is the same for any order of the nodes.
func (s *Simulator) traceActivity(tg *obsv.GroupTrace, vals []logic.W, stride int) {
	n := len(s.c.Nodes)
	words := (n + 63) / 64
	if len(s.actZ) < words {
		s.actZ = make([]uint64, words)
		s.actO = make([]uint64, words)
	}
	chg := 0
	var z, o uint64
	wi := 0
	for i := 0; i < n; i++ {
		w := vals[i*stride]
		z |= (w.Zeros & 1) << (uint(i) & 63)
		o |= (w.Ones & 1) << (uint(i) & 63)
		if i&63 == 63 {
			if s.actValid {
				chg += bits.OnesCount64((z ^ s.actZ[wi]) | (o ^ s.actO[wi]))
			}
			s.actZ[wi], s.actO[wi] = z, o
			z, o = 0, 0
			wi++
		}
	}
	if n&63 != 0 {
		if s.actValid {
			chg += bits.OnesCount64((z ^ s.actZ[wi]) | (o ^ s.actO[wi]))
		}
		s.actZ[wi], s.actO[wi] = z, o
	}
	if s.actValid {
		tg.Activity(chg)
	}
	s.actValid = true
}
