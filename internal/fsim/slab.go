package fsim

import (
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// The slab kernel simulates W fault groups per pass. Per-node state is a
// contiguous gate-major slab of W dual-rail words — vals[int(id)*W + lane] —
// so one levelized walk advances W×64 machines per gate visit: the W words
// of a gate and of its fanins are adjacent, and the per-gate dispatch (type,
// fanin count, injection check) is paid once for all W lanes. Detection
// scans are word-parallel diffs (slabDiff) over the W lane words of each
// primary output.
//
// Fault injection is sparse. A per-node mark byte says which kinds of fault
// site a node carries in the current batch, and per-kind indexes point into
// compact tables holding one entry per (site node, lane): the uninjected
// common path pays one byte load per gate, and the arena holds values and
// state, not nodes×lanes injection masks. Every model is injected
// word-parallel within a lane:
//
//   - stuck-at: the stem masks force their slots (ForceMask), pin forces
//     re-evaluate only the owning lanes of a gate;
//   - transition: each (site, lane) keeps its slow-to-rise slots r, its
//     slow-to-fall slots f and a launch-history word prev. With cur the
//     site's nominal word, force0 = r & prev.Zeros & cur.Ones and
//     force1 = f & prev.Ones & cur.Zeros, and prev then takes cur in the
//     site's slots: model.go's per-slot rule evaluated for 64 slots at once;
//   - bridge: a batch holding any bridge walks every time unit twice. The
//     first walk computes the nominal stem values, each (pair, lane) then
//     resolves its wired-AND and wired-OR slots to one forced word, and the
//     replay walk forces that word at both stems over the pair's slot mask
//     while replaying, not re-deciding, the transition forces.
//
// Bit-identity with the dense kernel holds by construction: lanes never
// interact (each lane carries its own fault-free machine in slot 0 and its
// own injection tables), every lane's gate evaluation is exactly the dense
// kernel's evaluation over that lane's words, and per-lane bookkeeping
// (activeMask draining, early-exit cycle counts, trace emission order,
// telemetry totals) mirrors the dense per-group bookkeeping. A lane whose
// group is fully detected or reaches a repeat exit stops counting (laneUnits
// freezes, matching the dense early exits) but keeps being evaluated until
// the whole batch is done; those wasted lane-cycles are counted on
// fsim.slab_lanes_idle.

// maxSlabLanes caps the lane width, explicit or automatic: 16 lanes × 64
// machines = 1024 machines per gate visit, and the per-lane masks are
// uint32 lane sets.
const maxSlabLanes = 16

// slabAutoLanes is the automatic lane width. The win of a wide batch is
// that each gate visit's dispatch is shared by W words, not that the slab
// fits a cache: on the seed-1 grade-session inputs (Workers=2, shared
// 2-vCPU host), W = 1/2/4/8/16 took 2.17/1.18/0.73/0.61/0.72 s on the
// s35932 (17,828 nodes) stuck-at faults and 1.45/0.89/0.64/0.52/0.53 s on
// s5378's. 8 was the best width, or within noise of it, for both circuits
// under all three fault models.
const slabAutoLanes = 8

// slabWidth reports the lane width W the slab kernel uses for a run with
// groups fault groups to spread over the worker pool. An explicit
// opts.SlabLanes is clamped to maxSlabLanes; the automatic width is
// slabAutoLanes, capped at ceil(groups/workers) so that a call with few
// groups still gives every worker a batch. Either is clamped to groups, and
// an OutputHook forces W=1: the hook's ordering contract (group 0's whole
// sequence first, then group 1's, ...) rules out interleaving groups.
func slabWidth(opts Options, groups int) int {
	if opts.OutputHook != nil {
		return 1
	}
	w := opts.SlabLanes
	if w <= 0 {
		w = slabAutoLanes
		if opts.Workers > 1 {
			w = min(w, (groups+opts.Workers-1)/opts.Workers)
		}
	}
	return max(1, min(w, maxSlabLanes, groups))
}

// Site kinds of the per-node mark byte.
const (
	markStem uint8 = 1 << iota
	markPin
	markTrans
	markBridge
)

// slabStem is one (node, lane) entry of stem stuck-at masks.
type slabStem struct{ m0, m1 uint64 }

// slabPinForce is one pin-fault force of a slab batch: lane selects the
// fault group, mask/bit the slot force within that lane's word.
type slabPinForce struct {
	lane int32
	pin  int32
	mask uint64
	bit  bool
}

// slabTrans is one (node, lane) entry of transition sites: the
// slow-to-rise and slow-to-fall slots and the current time unit's force
// decision, kept for the bridge replay walk. The launch history lives in
// slabState.transPrev.
type slabTrans struct{ rise, fall, force0, force1 uint64 }

// slabBridgeNode is one (node, lane) entry of bridged stems: the union of
// the slots bridged at the node and the resolved wired value of those
// slots (zero outside mask).
type slabBridgeNode struct {
	mask uint64
	val  logic.W
}

// slabPair is one bridged pair (a, b) in one lane: the wired-AND and
// wired-OR slots of that pair and its stems' bridge entries.
type slabPair struct {
	a, b    circuit.NodeID
	lane    int32
	ka, kb  int32
	and, or uint64
}

// slabState is the arena of the slab kernel: every scratch buffer a batch
// needs, owned by one Simulator, grown on demand and reused across batches
// and runs so steady-state slab passes allocate nothing. Values and state
// are gate-major with stride `lanes`; a tail batch with fewer active groups
// than the stride leaves the upper lanes unused.
type slabState struct {
	lanes int // stride W

	vals  []logic.W // len(nodes)*lanes: vals[int(id)*lanes+l]
	state []logic.W // len(DFFs)*lanes: state[k*lanes+l]

	// mark[id] holds the site kinds at node id; for each kind set, the
	// kind's index at id is the node's entry k in that kind's tables, whose
	// (node, lane) rows live at k*lanes+l. The index of a kind not marked
	// at id is stale and never read. marked lists the marked nodes, for
	// targeted clearing.
	mark   []uint8
	marked []circuit.NodeID

	stemIdx   []int32
	stemLanes []uint32 // per entry: lanes with a mask (only those are forced)
	stems     []slabStem

	pinIdx    []int32
	pinLanes  []uint32 // per entry: lanes with forces (only those re-evaluate)
	pinForces [][]slabPinForce

	transIdx   []int32
	transLanes []uint32
	trans      []slabTrans
	transPrev  []logic.W // launch history per (entry, lane), X outside the site slots

	bridgeIdx   []int32
	bridgeLanes []uint32
	bridges     []slabBridgeNode
	pairs       []slabPair

	// per-lane batch bookkeeping
	laneLo     []int // fault range [laneLo, laneHi) of each lane's group
	laneHi     []int
	activeMask []uint64 // undetected slots per lane
	laneUnits  []int    // dense-equivalent simulated vector count per lane
	laneDone   []bool   // lane reached its dense early-exit point
	watched    []uint64 // slots each lane's repeat exit watches
	watch      []repeatWatch
	tgs        []*obsv.GroupTrace
}

// slabFor returns the simulator's slab arena set to stride lanes. The
// buffers keep their capacity across strides, so a run whose width follows
// its group count re-allocates only when it grows past the widest earlier
// batch; every value a walk reads it has written first.
func (s *Simulator) slabFor(lanes int) *slabState {
	sl := s.slab
	if sl == nil {
		n := len(s.c.Nodes)
		sl = &slabState{
			mark:      make([]uint8, n),
			stemIdx:   make([]int32, n),
			pinIdx:    make([]int32, n),
			transIdx:  make([]int32, n),
			bridgeIdx: make([]int32, n),
		}
		s.slab = sl
	}
	if sl.lanes != lanes {
		sl.lanes = lanes
		sl.vals = resize(sl.vals, len(s.c.Nodes)*lanes)
		sl.state = resize(sl.state, len(s.c.DFFs)*lanes)
		sl.laneLo = resize(sl.laneLo, lanes)
		sl.laneHi = resize(sl.laneHi, lanes)
		sl.activeMask = resize(sl.activeMask, lanes)
		sl.laneUnits = resize(sl.laneUnits, lanes)
		sl.laneDone = resize(sl.laneDone, lanes)
		sl.watched = resize(sl.watched, lanes)
		sl.watch = resize(sl.watch, lanes)
		sl.tgs = resize(sl.tgs, lanes)
	}
	return sl
}

// resize returns b with length n, reusing its backing array when it is
// large enough.
func resize[T any](b []T, n int) []T {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]T, n)
}

// entry returns node id's entry in the table of kind, appending a fresh one
// (index n, the table's current entry count) when the node does not carry
// that kind yet; fresh reports the append.
func (sl *slabState) entry(id circuit.NodeID, kind uint8, idx []int32, n int) (k int, fresh bool) {
	if sl.mark[id]&kind != 0 {
		return int(idx[id]), false
	}
	if sl.mark[id] == 0 {
		sl.marked = append(sl.marked, id)
	}
	sl.mark[id] |= kind
	idx[id] = int32(n)
	return n, true
}

// buildInjectionSlab rebuilds the injection tables for the nl groups of a
// batch. Only the nodes the previous batch marked are cleared, so a batch
// pays O(sites), not O(nodes×lanes); the tables keep their capacity, which
// makes the rebuild allocation-free once warm.
func (s *Simulator) buildInjectionSlab(faults []fault.Fault, nl int) {
	sl := s.slab
	lanes := sl.lanes
	for _, n := range sl.marked {
		sl.mark[n] = 0
	}
	sl.marked = sl.marked[:0]
	sl.stemLanes, sl.stems = sl.stemLanes[:0], sl.stems[:0]
	sl.pinLanes, sl.pinForces = sl.pinLanes[:0], sl.pinForces[:0]
	sl.transLanes, sl.trans, sl.transPrev = sl.transLanes[:0], sl.trans[:0], sl.transPrev[:0]
	sl.bridgeLanes, sl.bridges, sl.pairs = sl.bridgeLanes[:0], sl.bridges[:0], sl.pairs[:0]
	// bridgeAt returns the row of stem id in lane l, adding slots to its mask.
	bridgeAt := func(id circuit.NodeID, l int, slots uint64) int32 {
		k, fresh := sl.entry(id, markBridge, sl.bridgeIdx, len(sl.bridgeLanes))
		if fresh {
			sl.bridgeLanes = append(sl.bridgeLanes, 0)
			sl.bridges = append(sl.bridges, make([]slabBridgeNode, lanes)...)
		}
		sl.bridgeLanes[k] |= 1 << uint(l)
		sl.bridges[k*lanes+l].mask |= slots
		return int32(k)
	}
	for l := 0; l < nl; l++ {
		lo, hi := sl.laneLo[l], sl.laneHi[l]
		for k := lo; k < hi; k++ {
			f := faults[k]
			slot := uint64(1) << uint(k-lo+1)
			switch {
			case f.Kind == fault.KindTransition:
				e, fresh := sl.entry(f.Node, markTrans, sl.transIdx, len(sl.transLanes))
				if fresh {
					sl.transLanes = append(sl.transLanes, 0)
					sl.trans = append(sl.trans, make([]slabTrans, lanes)...)
					sl.transPrev = append(sl.transPrev, make([]logic.W, lanes)...)
				}
				sl.transLanes[e] |= 1 << uint(l)
				if f.Stuck == 1 {
					sl.trans[e*lanes+l].rise |= slot
				} else {
					sl.trans[e*lanes+l].fall |= slot
				}
			case f.Kind == fault.KindBridge:
				// The collapsed universe lists a pair's wired-AND and
				// wired-OR faults next to each other, so merging with the
				// previous pair of the lane resolves both in one step.
				var p *slabPair
				if n := len(sl.pairs); n > 0 {
					if q := &sl.pairs[n-1]; q.a == f.Node && q.b == f.Node2 && int(q.lane) == l {
						p = q
					}
				}
				if p == nil {
					sl.pairs = append(sl.pairs, slabPair{a: f.Node, b: f.Node2, lane: int32(l)})
					p = &sl.pairs[len(sl.pairs)-1]
				}
				if f.Stuck == 1 {
					p.or |= slot
				} else {
					p.and |= slot
				}
				p.ka = bridgeAt(f.Node, l, slot)
				p.kb = bridgeAt(f.Node2, l, slot)
			case f.Pin < 0:
				e, fresh := sl.entry(f.Node, markStem, sl.stemIdx, len(sl.stemLanes))
				if fresh {
					sl.stemLanes = append(sl.stemLanes, 0)
					sl.stems = append(sl.stems, make([]slabStem, lanes)...)
				}
				sl.stemLanes[e] |= 1 << uint(l)
				if f.Stuck == 0 {
					sl.stems[e*lanes+l].m0 |= slot
				} else {
					sl.stems[e*lanes+l].m1 |= slot
				}
			default:
				e, fresh := sl.entry(f.Node, markPin, sl.pinIdx, len(sl.pinLanes))
				if fresh {
					sl.pinLanes = append(sl.pinLanes, 0)
					if cap(sl.pinForces) > e {
						sl.pinForces = sl.pinForces[:e+1]
						sl.pinForces[e] = sl.pinForces[e][:0]
					} else {
						sl.pinForces = append(sl.pinForces, nil)
					}
				}
				sl.pinForces[e] = append(sl.pinForces[e],
					slabPinForce{lane: int32(l), pin: int32(f.Pin), mask: slot, bit: f.Stuck == 1})
				sl.pinLanes[e] |= 1 << uint(l)
			}
		}
	}
}

// place applies the batch's stem, transition and (on the replay walk)
// bridge injection at node id to the lane words ov = vals[id*lanes:][:nl].
// Transition sites decide their forces from the launch history and advance
// it on a first walk, and re-apply the recorded decision on the replay walk.
func (sl *slabState) place(id circuit.NodeID, ov []logic.W, replay bool) {
	m := sl.mark[id]
	lanes := sl.lanes
	if m&markStem != 0 {
		k := int(sl.stemIdx[id])
		for ls := sl.stemLanes[k]; ls != 0; ls &= ls - 1 {
			l := bits.TrailingZeros32(ls)
			st := &sl.stems[k*lanes+l]
			ov[l] = ov[l].ForceMask(st.m0, false).ForceMask(st.m1, true)
		}
	}
	if m&markTrans != 0 {
		k := int(sl.transIdx[id])
		for ls := sl.transLanes[k]; ls != 0; ls &= ls - 1 {
			l := bits.TrailingZeros32(ls)
			i := k*lanes + l
			t := &sl.trans[i]
			w := ov[l]
			if !replay {
				prev := sl.transPrev[i]
				t.force0 = t.rise & prev.Zeros & w.Ones
				t.force1 = t.fall & prev.Ones & w.Zeros
				site := t.rise | t.fall
				sl.transPrev[i] = logic.W{
					Zeros: prev.Zeros&^site | w.Zeros&site,
					Ones:  prev.Ones&^site | w.Ones&site,
				}
			}
			ov[l] = w.ForceMask(t.force0, false).ForceMask(t.force1, true)
		}
	}
	if replay && m&markBridge != 0 {
		k := int(sl.bridgeIdx[id])
		for ls := sl.bridgeLanes[k]; ls != 0; ls &= ls - 1 {
			l := bits.TrailingZeros32(ls)
			b := &sl.bridges[k*lanes+l]
			w := ov[l]
			ov[l] = logic.W{Zeros: w.Zeros&^b.mask | b.val.Zeros, Ones: w.Ones&^b.mask | b.val.Ones}
		}
	}
}

// resolveBridges computes, from the first walk's nominal stem values, each
// pair's wired value in every lane and stores it at both stems' entries.
func (sl *slabState) resolveBridges() {
	lanes := sl.lanes
	for _, p := range sl.pairs {
		l := int(p.lane)
		va, vb := sl.vals[int(p.a)*lanes+l], sl.vals[int(p.b)*lanes+l]
		and, or := va.And(vb), va.Or(vb)
		mask := p.and | p.or
		wired := logic.W{
			Zeros: and.Zeros&p.and | or.Zeros&p.or,
			Ones:  and.Ones&p.and | or.Ones&p.or,
		}
		for _, k := range [2]int32{p.ka, p.kb} {
			b := &sl.bridges[int(k)*lanes+l]
			b.val = logic.W{Zeros: b.val.Zeros&^mask | wired.Zeros, Ones: b.val.Ones&^mask | wired.Ones}
		}
	}
}

// slabDiff is DiffMask without the reference-value branch: detection scans
// run it over every (output, lane) word, where a data-dependent branch on
// the fault-free value would mispredict constantly. Equivalent to DiffMask
// for every valid word: -(Ones&1) is all-ones exactly when the reference
// slot is 1 (selecting Zeros, the slots reading 0), -(Zeros&1) when it is 0
// (selecting Ones), and both masks are zero for an X reference. Validity
// (Zeros&Ones == 0) guarantees at most one selector fires.
func slabDiff(w logic.W) uint64 {
	return (w.Zeros & -(w.Ones & 1)) | (w.Ones & -(w.Zeros & 1))
}

// runSlabBatch simulates the nl fault groups g0..g0+nl-1 in lanes 0..nl-1 of
// a stride-wide slab, writing only those groups' disjoint regions of out and
// returning the number of detections. One time unit is one levelized walk
// evaluating all nl lanes of every gate, two for a batch with bridges.
func (s *Simulator) runSlabBatch(seq *sim.Sequence, faults []fault.Fault, g0, nl, stride, stop int, opts Options, out *Outcome, tb *counterBatch) int {
	c := s.c
	sl := s.slabFor(stride)
	lanes := sl.lanes
	for l := 0; l < nl; l++ {
		lo := (g0 + l) * GroupSize
		sl.laneLo[l] = lo
		sl.laneHi[l] = min(lo+GroupSize, len(faults))
		sl.activeMask[l] = groupMask(sl.laneHi[l] - lo)
		sl.laneUnits[l] = 0
		sl.laneDone[l] = false
		sl.watched[l] = s.repeatSlots(faults[lo:sl.laneHi[l]])
		tg := opts.Trace.Group(g0 + l)
		tg.SetWorker(s.worker)
		sl.tgs[l] = tg
	}
	traceAct := g0 == 0 && sl.tgs[0] != nil
	if traceAct {
		s.actValid = false // activity baseline starts with this pass
	}
	s.buildInjectionSlab(faults, nl)
	hasBridge := len(sl.pairs) > 0

	vals, state := sl.vals, sl.state
	for l := 0; l < nl; l++ {
		if opts.InitialStates != nil {
			st := opts.InitialStates.groups[g0+l]
			for k := range c.DFFs {
				state[k*lanes+l] = st[k]
			}
		} else {
			wv := logic.Broadcast(opts.Init)
			for k := range c.DFFs {
				state[k*lanes+l] = wv
			}
		}
	}
	if opts.InitialStates != nil {
		s.slabHistory(opts.InitialStates, true)
	}

	// Both early exits follow the dense rule per lane; the batch itself
	// only breaks when every lane is done.
	eligible := earlyExitEligible(opts)
	units := 0
	det := 0
	active := nl
	hist := func() []logic.W { return sl.transPrev }

	for u := 0; u < stop; u++ {
		if eligible {
			for l := 0; l < nl; l++ {
				if !sl.laneDone[l] && sl.watch[l].repeats(u, state, hist, l, lanes, sl.activeMask[l]&sl.watched[l]|1, seq, stop) {
					// The lane keeps being evaluated with the batch, but it
					// can detect nothing more: stop counting and scanning it.
					sl.laneDone[l] = true
					sl.activeMask[l] = 0
					active--
					tb.repeatExits++
				}
			}
			if active == 0 {
				break // every lane reached its dense early-exit point
			}
		}
		units++
		for l := 0; l < nl; l++ {
			if !sl.laneDone[l] {
				sl.laneUnits[l]++
			}
		}
		s.slabWalk(seq, u, nl, false)
		if hasBridge {
			sl.resolveBridges()
			s.slabWalk(seq, u, nl, true)
		}
		if traceAct && !sl.laneDone[0] {
			s.traceActivity(sl.tgs[0], vals, lanes)
		}
		// Detection: word-parallel diff over each output's lane words. For a
		// fixed lane the emission order (time, then PO index, then slot) is
		// exactly the dense kernel's, so per-group trace streams and
		// DetTime/Detected are bit-identical.
		for poi, id := range c.Outputs {
			base := int(id) * lanes
			for l := 0; l < nl; l++ {
				am := sl.activeMask[l]
				if am == 0 {
					continue
				}
				d := slabDiff(vals[base+l]) & am
				for ; d != 0; d &= d - 1 {
					slot := trailingZeros(d)
					fi := sl.laneLo[l] + slot - 1
					out.Detected[fi] = true
					out.DetTime[fi] = u + opts.TimeOffset
					det++
					am &^= 1 << uint(slot)
					if sl.tgs[l] != nil {
						sl.tgs[l].Detect(fi, u+opts.TimeOffset, poi)
					}
				}
				sl.activeMask[l] = am
			}
		}
		if opts.OutputHook != nil {
			// OutputHook forces a 1-lane batch, so lane 0 is the whole group.
			po := s.poScratch[:0]
			for _, id := range c.Outputs {
				po = append(po, vals[int(id)*lanes])
			}
			s.poScratch = po
			opts.OutputHook(sl.laneLo[0], sl.laneHi[0], u, po)
		}
		if opts.ObserveLines {
			for id := 0; id < len(c.Nodes); id++ {
				base := id * lanes
				for l := 0; l < nl; l++ {
					d := slabDiff(vals[base+l])
					for ; d != 0; d &= d - 1 {
						slot := trailingZeros(d)
						if slot == 0 {
							continue
						}
						out.Lines[sl.laneLo[l]+slot-1].Set(id)
					}
				}
			}
		}
		if eligible {
			for l := 0; l < nl; l++ {
				if !sl.laneDone[l] && sl.activeMask[l] == 0 {
					sl.laneDone[l] = true
					active--
				}
			}
			if active == 0 {
				break // every lane reached its dense early-exit point
			}
		}
		// Clock edge: next state per lane, with DFF D-pin faults applied.
		for k, id := range c.DFFs {
			f0 := int(c.Nodes[id].Fanins[0]) * lanes
			sbase := k * lanes
			sv, dv := state[sbase:sbase+nl], vals[f0:f0+nl]
			for l := range sv {
				sv[l] = dv[l]
			}
			if sl.mark[id]&markPin != 0 {
				e := sl.pinIdx[id]
				forces := sl.pinForces[e]
				for m := sl.pinLanes[e]; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					wv := vals[f0+l]
					for _, p := range forces {
						if int(p.lane) == l {
							wv = wv.ForceMask(p.mask, p.bit)
						}
					}
					state[sbase+l] = wv
				}
			}
		}
	}
	if opts.SaveStates {
		for l := 0; l < nl; l++ {
			saved := make([]logic.W, len(c.DFFs))
			for k := range saved {
				saved[k] = state[k*lanes+l]
			}
			out.FinalStates.groups[g0+l] = saved
		}
		s.slabHistory(out.FinalStates, false)
	}
	var laneVec int64
	for l := 0; l < nl; l++ {
		sl.tgs[l].SetVectors(sl.laneUnits[l])
		sl.tgs[l] = nil
		laneVec += int64(sl.laneUnits[l])
		tb.lanesIdle += int64(units - sl.laneUnits[l])
	}
	// gateEvals stays the dense-equivalent count (lane-cycles × gates), so
	// effective evals and evals/vector remain kernel-invariant quantities
	// that the counter pins hold exact; the batching win shows up in wall
	// clock and fsim.slab_passes, the overshoot in fsim.slab_lanes_idle.
	tb.gateEvals += laneVec * int64(len(s.gateID))
	tb.vectors += laneVec
	tb.passes += int64(nl)
	tb.dropped += int64(det)
	tb.slabPasses++
	return det
}

// slabHistory moves the launch history of the batch's transition sites
// between the slab and st: load seeds every site slot from st (a continued
// run), otherwise the final history is saved into st.
func (s *Simulator) slabHistory(st *States, load bool) {
	if st.hist == nil {
		return
	}
	sl := s.slab
	for k, ls := range sl.transLanes {
		for ; ls != 0; ls &= ls - 1 {
			l := bits.TrailingZeros32(ls)
			i := k*sl.lanes + l
			t := sl.trans[i]
			for m := t.rise | t.fall; m != 0; m &= m - 1 {
				slot := uint64(1) << uint(trailingZeros(m))
				fi := sl.laneLo[l] + trailingZeros(m) - 1
				if load {
					sl.transPrev[i] = forceV(sl.transPrev[i], slot, st.hist[fi])
				} else {
					st.hist[fi] = slotV(sl.transPrev[i], slot)
				}
			}
		}
	}
}

// slabWalk evaluates one time unit over the nl lanes of the batch: load the
// primary inputs and present state, then one levelized walk, placing every
// marked node's value through the batch's injection. The per-fanin-count
// and per-gate-type dispatch happens once per gate; the inner lane loops
// run over adjacent words.
func (s *Simulator) slabWalk(seq *sim.Sequence, u, nl int, replay bool) {
	c := s.c
	sl := s.slab
	lanes := sl.lanes
	vals, state := sl.vals, sl.state
	var fan [8]logic.W
	for k, id := range c.Inputs {
		wv := logic.Broadcast(seq.At(u, k))
		ov := vals[int(id)*lanes : int(id)*lanes+nl]
		for l := range ov {
			ov[l] = wv
		}
		if sl.mark[id] != 0 {
			sl.place(id, ov, replay)
		}
	}
	for k, id := range c.DFFs {
		ov := vals[int(id)*lanes : int(id)*lanes+nl]
		sv := state[k*lanes : k*lanes+nl]
		for l := range ov {
			ov[l] = sv[l]
		}
		if sl.mark[id] != 0 {
			sl.place(id, ov, replay)
		}
	}
	for k := range s.gateID {
		id := s.gateID[k]
		gt := s.gateType[k]
		flo, fhi := s.faninStart[k], s.faninStart[k+1]
		base := int(id) * lanes
		ov := vals[base : base+nl]
		// Fast path for every lane first; lanes carrying pin forces at
		// this gate are re-evaluated afterwards. With W lanes a batch
		// spans W groups' fault sites, so the slow path must stay
		// per-(gate,lane) — per-gate it would fire ~W× more often than
		// the dense kernel's.
		switch fhi - flo {
		case 1:
			a := int(s.faninList[flo]) * lanes
			av := vals[a : a+nl]
			switch gt {
			case circuit.Not, circuit.Nand, circuit.Nor, circuit.Xnor:
				for l := range ov {
					ov[l] = av[l].Not()
				}
			default:
				for l := range ov {
					ov[l] = av[l]
				}
			}
		case 2:
			a := int(s.faninList[flo]) * lanes
			b := int(s.faninList[flo+1]) * lanes
			av, bv := vals[a:a+nl], vals[b:b+nl]
			switch gt {
			case circuit.And:
				for l := range ov {
					ov[l] = av[l].And(bv[l])
				}
			case circuit.Nand:
				for l := range ov {
					ov[l] = av[l].And(bv[l]).Not()
				}
			case circuit.Or:
				for l := range ov {
					ov[l] = av[l].Or(bv[l])
				}
			case circuit.Nor:
				for l := range ov {
					ov[l] = av[l].Or(bv[l]).Not()
				}
			case circuit.Xor:
				for l := range ov {
					ov[l] = av[l].Xor(bv[l])
				}
			case circuit.Xnor:
				for l := range ov {
					ov[l] = av[l].Xor(bv[l]).Not()
				}
			default:
				for l := range ov {
					ov[l] = eval2(gt, av[l], bv[l])
				}
			}
		case 3:
			// Same left-fold order as evalW, so the words are identical.
			a := int(s.faninList[flo]) * lanes
			b := int(s.faninList[flo+1]) * lanes
			c3 := int(s.faninList[flo+2]) * lanes
			av, bv, cv := vals[a:a+nl], vals[b:b+nl], vals[c3:c3+nl]
			switch gt {
			case circuit.And:
				for l := range ov {
					ov[l] = av[l].And(bv[l]).And(cv[l])
				}
			case circuit.Nand:
				for l := range ov {
					ov[l] = av[l].And(bv[l]).And(cv[l]).Not()
				}
			case circuit.Or:
				for l := range ov {
					ov[l] = av[l].Or(bv[l]).Or(cv[l])
				}
			case circuit.Nor:
				for l := range ov {
					ov[l] = av[l].Or(bv[l]).Or(cv[l]).Not()
				}
			case circuit.Xor:
				for l := range ov {
					ov[l] = av[l].Xor(bv[l]).Xor(cv[l])
				}
			case circuit.Xnor:
				for l := range ov {
					ov[l] = av[l].Xor(bv[l]).Xor(cv[l]).Not()
				}
			default:
				for l := range ov {
					in := fan[:0]
					in = append(in, av[l], bv[l], cv[l])
					ov[l] = evalW(gt, in)
				}
			}
		default:
			// Wider gates fold fanin by fanin over all lanes, in evalW's
			// left-fold order.
			a := int(s.faninList[flo]) * lanes
			av := vals[a : a+nl]
			for l := range ov {
				ov[l] = av[l]
			}
			for _, f := range s.faninList[flo+1 : fhi] {
				fv := vals[int(f)*lanes : int(f)*lanes+nl]
				switch gt {
				case circuit.And, circuit.Nand:
					for l := range ov {
						ov[l] = ov[l].And(fv[l])
					}
				case circuit.Or, circuit.Nor:
					for l := range ov {
						ov[l] = ov[l].Or(fv[l])
					}
				default:
					for l := range ov {
						ov[l] = ov[l].Xor(fv[l])
					}
				}
			}
			if gt == circuit.Nand || gt == circuit.Nor || gt == circuit.Xnor {
				for l := range ov {
					ov[l] = ov[l].Not()
				}
			}
		}
		m := sl.mark[id]
		if m == 0 {
			continue
		}
		if m&markPin != 0 {
			// Re-evaluate only the lanes with forces at this gate, exactly
			// as the dense kernel evaluates its one group: gather, force,
			// evalW.
			e := sl.pinIdx[id]
			forces := sl.pinForces[e]
			for ls := sl.pinLanes[e]; ls != 0; ls &= ls - 1 {
				l := bits.TrailingZeros32(ls)
				in := fan[:0]
				for _, f := range s.faninList[flo:fhi] {
					in = append(in, vals[int(f)*lanes+l])
				}
				for _, p := range forces {
					if int(p.lane) == l {
						in[p.pin] = in[p.pin].ForceMask(p.mask, p.bit)
					}
				}
				ov[l] = evalW(gt, in)
			}
		}
		sl.place(id, ov, replay)
	}
}
