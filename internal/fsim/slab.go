package fsim

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/sim"
)

// The slab kernel simulates W fault groups per pass. Per-node state is a
// contiguous row-major slab of W dual-rail words — vals[row*W + lane] — so
// one levelized walk advances W×64 machines per gate visit: the W words of a
// gate and of its fanins are adjacent, and the dispatch (type, fanin count)
// is paid once per run of gates for all W lanes. Detection scans are
// word-parallel diffs (slabDiff) over the W lane words of each primary
// output.
//
// Rows are numbered in walk order (slabLayout): primary inputs, then
// flip-flops, then the gates level by level, each level split into runs of
// one (fanin count, type). Output stores land on consecutive rows, the
// flip-flop rows load with one copy of the state slab, fanin rows are
// precomputed, and the inner loop of a run has no per-gate switch. Gates of
// one level never read each other, so any order within a level computes
// the same words.
//
// Fault injection is sparse. A per-row mark byte says which kinds of fault
// site a node carries in the current batch, and per-kind indexes point into
// compact tables holding one entry per (site node, lane). The marked rows
// are kept sorted and visited on a side path after their run, so the walk
// over unmarked gates never looks at injection state, and the arena holds
// values and state, not nodes×lanes injection masks. Every model is
// injected word-parallel within a lane:
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
// Bit-identity with the dense kernel holds by construction: slots never
// interact (each lane carries the fault-free machine in slot 0 and its own
// injection tables), every slot's gate evaluation is exactly the dense
// kernel's evaluation of that machine, and the bookkeeping of each fault
// group (undetected mask, early exits, trace emission order, telemetry) is
// the dense pass's, kept per group rather than per lane.
//
// Live-fault packing. A batch starts with group g0+l in lane l. Where the
// early exits apply (earlyExitEligible), a group stops counting at its dense
// exit point: once all its faults are detected, or at the repeat exit,
// which is evaluated on the group's own machines wherever they sit. Its
// lane words then carry nothing live, and detected faults leave holes in
// every lane. Once the live faults (undetected, detectable, of unfinished
// groups) fit in fewer lanes and the walks the move saves outweigh its cost
// (maybeRepack), repack moves them in fault order into the first lanes of a
// narrower slab: each fault's flip-flop bits, launch history and repeat
// checkpoint move with it, the fault-free slot 0 is shared (lanes merge
// only when their slot-0 states agree now and at the checkpoint), and the
// injection tables are rebuilt for the new layout. On grade-session's
// seed-1 s5378 session (the kernel benchmark's session/s5378 cases) the
// stuck-at, transition and bridge universes walk 25,379, 15,309 and 3,266
// lane-cycles packed, against 50,114, 25,627 and 9,513 dense-equivalent
// ones. Lane-cycles walked are counted on fsim.slab_lane_cycles, walked
// lane-cycles that held no machine of an unfinished group on
// fsim.slab_lanes_idle.

// maxSlabLanes caps the lane width, explicit or automatic: 16 lanes × 64
// machines = 1024 machines per gate visit, and the per-lane masks are
// uint32 lane sets.
const maxSlabLanes = 16

// slabAutoLanes is the automatic lane width. A wide batch shares each gate
// visit's dispatch among W words, and packing narrows it again as its
// faults are detected. On the kernel benchmark's grade-session cases
// (BenchmarkKernelSlabLanes, Workers=1, shared 2-vCPU host, go1.24, the
// fastest of three runs) W = 1/2/4/8/16 took 1.63/0.92/0.86/0.69/0.55 s on
// s5378's stuck-at universe and 1.31/1.21/1.31/1.31/1.05 s on s35932's,
// whose 17,828-node slab outgrows the caches as W grows. In two more
// rounds of W=8 against W=16 on all six session cases, 8 was faster in 9
// of 12, and 16 doubles the slab's memory, so the width stays 8.
const slabAutoLanes = 8

// slabWidth reports the lane width W the slab kernel uses for a run with
// groups fault groups to spread over the worker pool. An explicit
// opts.SlabLanes is clamped to maxSlabLanes; the automatic width is
// slabAutoLanes, capped at ceil(groups/workers) so that a call with few
// groups still gives every worker a batch. Either is clamped to groups.
func slabWidth(opts Options, groups int) int {
	w := opts.SlabLanes
	if w <= 0 {
		w = slabAutoLanes
		if opts.Workers > 1 {
			w = min(w, (groups+opts.Workers-1)/opts.Workers)
		}
	}
	return max(1, min(w, maxSlabLanes, groups))
}

// slabLayout is the slab kernel's row order of one netlist, built once in
// New and shared, like the flattened netlist, by every sibling simulator.
type slabLayout struct {
	row   []int32          // row[id]: the slab row of node id
	node  []circuit.NodeID // node[r]: the node at row r
	gate0 int32            // first gate row: the inputs and flip-flops come first
	runs  []slabRun
	fanin []int32 // fanin rows of every gate, gate by gate in row order
	po    []int32 // rows of the primary outputs, in output order
	d     []int32 // d[k]: row of flip-flop k's D input
}

// slabRun is a run of gates of one level, type and fanin count on rows
// [lo, hi); the fanins of row r are fanin[f0+(r-lo)*nfan:][:nfan], and inv
// says the type inverts (Not, Nand, Nor, Xnor).
type slabRun struct {
	typ        circuit.GateType
	inv        bool
	nfan       int32
	lo, hi, f0 int32
}

// newSlabLayout numbers the rows of c in walk order in O(nodes + levels ×
// classes), each level's gates grouped into runs of one class.
func newSlabLayout(c *circuit.Circuit) *slabLayout {
	n := len(c.Nodes)
	lay := &slabLayout{row: make([]int32, n), node: make([]circuit.NodeID, 0, n)}
	lay.node = append(lay.node, c.Inputs...)
	lay.node = append(lay.node, c.DFFs...)
	lay.gate0 = int32(len(lay.node))

	// One stable counting sort of the topological gate order by (level,
	// class), the classes being the (fanin count, type) pairs numbered in
	// order of first appearance.
	type class struct {
		nfan int
		typ  circuit.GateType
	}
	ids := map[class]int{}
	nfanin := 0
	for _, id := range c.Order {
		nd := &c.Nodes[id]
		nfanin += len(nd.Fanins)
		if key := (class{len(nd.Fanins), nd.Type}); ids[key] == 0 {
			ids[key] = len(ids) + 1
		}
	}
	nc := len(ids)
	bucket := func(id circuit.NodeID) int {
		nd := &c.Nodes[id]
		return int(nd.Level)*nc + ids[class{len(nd.Fanins), nd.Type}] - 1
	}
	start := make([]int32, (int(c.MaxLevel())+1)*nc+1)
	for _, id := range c.Order {
		start[bucket(id)+1]++
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	if int(lay.gate0)+len(c.Order) != n {
		panic(fmt.Sprintf("fsim: circuit %s has %d nodes, but %d inputs, flip-flops and gates", c.Name, n, int(lay.gate0)+len(c.Order)))
	}
	lay.node = lay.node[:n]
	for _, id := range c.Order {
		b := bucket(id)
		lay.node[lay.gate0+start[b]] = id
		start[b]++
	}
	for r, id := range lay.node {
		lay.row[id] = int32(r)
	}
	lay.fanin = make([]int32, 0, nfanin)
	for r := int(lay.gate0); r < n; r++ {
		nd := &c.Nodes[lay.node[r]]
		nf := int32(len(nd.Fanins))
		if m := len(lay.runs); m == 0 || lay.runs[m-1].typ != nd.Type || lay.runs[m-1].nfan != nf ||
			c.Nodes[lay.node[lay.runs[m-1].lo]].Level != nd.Level {
			inv := nd.Type == circuit.Not || nd.Type == circuit.Nand || nd.Type == circuit.Nor || nd.Type == circuit.Xnor
			lay.runs = append(lay.runs, slabRun{typ: nd.Type, inv: inv, nfan: nf, lo: int32(r), f0: int32(len(lay.fanin))})
		}
		lay.runs[len(lay.runs)-1].hi = int32(r + 1)
		for _, f := range nd.Fanins {
			lay.fanin = append(lay.fanin, lay.row[f])
		}
	}
	lay.po = make([]int32, len(c.Outputs))
	for i, id := range c.Outputs {
		lay.po[i] = lay.row[id]
	}
	lay.d = make([]int32, len(c.DFFs))
	for k, id := range c.DFFs {
		lay.d[k] = lay.row[c.Nodes[id].Fanins[0]]
	}
	return lay
}

// Site kinds of the per-row mark byte.
const (
	markStem uint8 = 1 << iota
	markPin
	markTrans
	markBridge
)

// slabStem is one (node, lane) entry of stem stuck-at masks.
type slabStem struct{ m0, m1 uint64 }

// slabPinForce is one pin-fault force of a slab batch: lane selects the
// lane, mask/bit the slot force within that lane's word.
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

// slabPair is one bridged pair of stem rows (a, b) in one lane: the
// wired-AND and wired-OR slots of that pair and its stems' bridge entries.
type slabPair struct {
	a, b    int32
	lane    int32
	ka, kb  int32
	and, or uint64
}

// slabSeg is the part of a fault group that sits in one lane: the lane and
// the slots of that lane holding the group's faults. A group occupies one
// lane until the first repack and at most two after it (63 faults in fault
// order span at most two lanes); the first segment's lane is also the one
// whose slot 0 the group's repeat exit watches.
type slabSeg struct {
	lane int
	own  uint64
}

// slabMove moves the slots mask of lane src, shifted by shift, into lane dst
// of a repacked slab.
type slabMove struct {
	src, dst, shift int
	mask            uint64
}

// slabHistMove carries one transition fault's launch history, now and at
// the checkpoint, across a repack to slot slot of lane lane.
type slabHistMove struct {
	fi, lane, slot int
	cur, ck        logic.V
}

// slabState is the arena of the slab kernel: every scratch buffer a batch
// needs, owned by one Simulator, grown on demand and reused across batches,
// repacks and runs so steady-state slab passes allocate nothing. Values,
// state and injection tables are row-major with stride lanes, the number of
// lanes the walk evaluates.
type slabState struct {
	lanes int // stride W
	g0    int // first fault group of the batch

	vals  []logic.W // rows*lanes: vals[r*lanes+l]
	state []logic.W // len(DFFs)*lanes: state[k*lanes+l]

	// mark[r] holds the site kinds at row r; for each kind set, the kind's
	// index at r is the node's entry k in that kind's tables, whose
	// (node, lane) rows live at k*lanes+l. The index of a kind not marked
	// at r is stale and never read. marked lists the marked rows in
	// ascending order.
	mark   []uint8
	marked []int32

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

	// The repeat exit's checkpoint (see repeatWatch): the time unit at, the
	// Brent span, and the flip-flop and launch-history words of every slot
	// at that time unit, in the layout of state and transPrev.
	ckAt, ckSpan int
	ck, ckPrev   []logic.W

	// per-lane layout
	faultAt    []int32  // faultAt[l*64+slot]: the fault in that slot, -1 if none
	activeMask []uint64 // undetected slots of unfinished groups per lane
	watched    []uint64 // slots per lane whose faults can be detected at all

	// per fault group j of the batch (group g0+j)
	gActive []uint64 // undetected faults, slot k-lo+1 for fault k (dense's mask)
	gUnits  []int    // dense-equivalent simulated vector count
	gDone   []bool   // the group reached its dense early-exit point
	seg     []slabSeg
	tgs     []*obsv.GroupTrace

	// repack scratch; mixed records that this batch's lanes were found
	// running different fault-free machines, which rules out merging them.
	faultSpare []int32
	moves      []slabMove
	histMoves  []slabHistMove
	mixed      bool
}

// slabFor returns the simulator's slab arena set up for a batch of nl
// groups in nl lanes. The buffers keep their capacity across batches, so a
// run re-allocates only when a batch grows past the widest earlier one;
// every value a walk reads it has written first.
func (s *Simulator) slabFor(nl int) *slabState {
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
	sl.lanes = nl
	sl.vals = resize(sl.vals, len(s.c.Nodes)*nl)
	sl.state = resize(sl.state, len(s.c.DFFs)*nl)
	sl.faultAt = resize(sl.faultAt, nl*64)
	sl.activeMask = resize(sl.activeMask, nl)
	sl.watched = resize(sl.watched, nl)
	sl.gActive = resize(sl.gActive, nl)
	sl.gUnits = resize(sl.gUnits, nl)
	sl.gDone = resize(sl.gDone, nl)
	sl.seg = resize(sl.seg, 2*nl)
	sl.tgs = resize(sl.tgs, nl)
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

// entry returns row r's entry in the table of kind, appending a fresh one
// (index n, the table's current entry count) when the row does not carry
// that kind yet; fresh reports the append.
func (sl *slabState) entry(r int32, kind uint8, idx []int32, n int) (k int, fresh bool) {
	if sl.mark[r]&kind != 0 {
		return int(idx[r]), false
	}
	if sl.mark[r] == 0 {
		sl.marked = append(sl.marked, r)
	}
	sl.mark[r] |= kind
	idx[r] = int32(n)
	return n, true
}

// buildInjectionSlab rebuilds the injection tables for the faults the
// lanes hold (faultAt). Only the rows the previous build marked are
// cleared, so a build pays O(sites), not O(nodes×lanes); the tables keep
// their capacity, which makes the rebuild allocation-free once warm. Every
// launch history starts at X.
func (s *Simulator) buildInjectionSlab(faults []fault.Fault) {
	sl := s.slab
	row := s.lay.row
	lanes := sl.lanes
	for _, r := range sl.marked {
		sl.mark[r] = 0
	}
	sl.marked = sl.marked[:0]
	sl.stemLanes, sl.stems = sl.stemLanes[:0], sl.stems[:0]
	sl.pinLanes, sl.pinForces = sl.pinLanes[:0], sl.pinForces[:0]
	sl.transLanes, sl.trans, sl.transPrev = sl.transLanes[:0], sl.trans[:0], sl.transPrev[:0]
	sl.bridgeLanes, sl.bridges, sl.pairs = sl.bridgeLanes[:0], sl.bridges[:0], sl.pairs[:0]
	// bridgeAt returns the entry of stem row r in lane l, adding slots to
	// its mask.
	bridgeAt := func(r int32, l int, slots uint64) int32 {
		k, fresh := sl.entry(r, markBridge, sl.bridgeIdx, len(sl.bridgeLanes))
		if fresh {
			sl.bridgeLanes = append(sl.bridgeLanes, 0)
			sl.bridges = append(sl.bridges, make([]slabBridgeNode, lanes)...)
		}
		sl.bridgeLanes[k] |= 1 << uint(l)
		sl.bridges[k*lanes+l].mask |= slots
		return int32(k)
	}
	for l := 0; l < lanes; l++ {
		for sn, fi := range sl.faultAt[l*64+1 : l*64+64] {
			if fi < 0 {
				continue
			}
			f := faults[fi]
			slot := uint64(1) << uint(sn+1)
			r := row[f.Node]
			switch {
			case f.Kind == fault.KindTransition:
				e, fresh := sl.entry(r, markTrans, sl.transIdx, len(sl.transLanes))
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
				r2 := row[f.Node2]
				var p *slabPair
				if n := len(sl.pairs); n > 0 {
					if q := &sl.pairs[n-1]; q.a == r && q.b == r2 && int(q.lane) == l {
						p = q
					}
				}
				if p == nil {
					sl.pairs = append(sl.pairs, slabPair{a: r, b: r2, lane: int32(l)})
					p = &sl.pairs[len(sl.pairs)-1]
				}
				if f.Stuck == 1 {
					p.or |= slot
				} else {
					p.and |= slot
				}
				p.ka = bridgeAt(r, l, slot)
				p.kb = bridgeAt(r2, l, slot)
			case f.Pin < 0:
				e, fresh := sl.entry(r, markStem, sl.stemIdx, len(sl.stemLanes))
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
				e, fresh := sl.entry(r, markPin, sl.pinIdx, len(sl.pinLanes))
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
	slices.Sort(sl.marked)
}

// place applies the batch's stem, transition and (on the replay walk)
// bridge injection at row r to the lane words ov = vals[r*lanes:][:lanes].
// Transition sites decide their forces from the launch history and advance
// it on a first walk, and re-apply the recorded decision on the replay walk.
func (sl *slabState) place(r int32, ov []logic.W, replay bool) {
	m := sl.mark[r]
	lanes := sl.lanes
	if m&markStem != 0 {
		k := int(sl.stemIdx[r])
		for ls := sl.stemLanes[k]; ls != 0; ls &= ls - 1 {
			l := bits.TrailingZeros32(ls)
			st := &sl.stems[k*lanes+l]
			ov[l] = ov[l].ForceMask(st.m0, false).ForceMask(st.m1, true)
		}
	}
	if m&markTrans != 0 {
		k := int(sl.transIdx[r])
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
		k := int(sl.bridgeIdx[r])
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

// runSlabBatch simulates the nl fault groups g0..g0+nl-1, group g0+l
// starting in lane l, writing only those groups' disjoint regions of out
// and returning the number of detections. One time unit is one levelized
// walk over the slab's lanes, two for a batch with bridges; where the early
// exits apply, a repack may narrow the slab between time units.
func (s *Simulator) runSlabBatch(seq *sim.Sequence, faults []fault.Fault, g0, nl int, opts Options, out *Outcome, w *Work) int {
	c := s.c
	lay := s.lay
	sl := s.slabFor(nl)
	sl.g0, sl.mixed = g0, false
	for j := 0; j < nl; j++ {
		lo := (g0 + j) * GroupSize
		hi := min(lo+GroupSize, len(faults))
		all := groupMask(hi - lo)
		sl.gActive[j], sl.gUnits[j], sl.gDone[j] = all, 0, false
		sl.seg[2*j], sl.seg[2*j+1] = slabSeg{lane: j, own: all}, slabSeg{}
		sl.activeMask[j] = all
		sl.watched[j] = s.repeatSlots(faults[lo:hi])
		fa := sl.faultAt[j*64 : j*64+64]
		for slot := range fa {
			fa[slot] = -1
			if fi := lo + slot - 1; slot > 0 && fi < hi {
				fa[slot] = int32(fi)
			}
		}
		tg := opts.Trace.Group(g0 + j)
		tg.SetWorker(s.worker)
		sl.tgs[j] = tg
	}
	traceAct := g0 == 0 && sl.tgs[0] != nil
	if traceAct {
		s.actValid = false // activity baseline starts with this pass
	}
	s.buildInjectionSlab(faults)

	state := sl.state
	for j := 0; j < nl; j++ {
		if opts.InitialStates != nil {
			for k, w := range opts.InitialStates.groups[g0+j] {
				state[k*nl+j] = w
			}
		} else {
			wv := logic.Broadcast(opts.Init)
			for k := range c.DFFs {
				state[k*nl+j] = wv
			}
		}
	}
	if opts.InitialStates != nil {
		s.slabHistory(opts.InitialStates, true)
	}

	// Both early exits follow the dense rule per group; the batch itself
	// only breaks when every group is done.
	eligible := earlyExitEligible(opts)
	active := nl
	det := 0
	t0 := opts.InitialStates.start()
	var laneCycles, idle int64
	for u := 0; u < seq.Len(); u++ {
		if eligible {
			active -= s.slabRepeatExits(seq, u, w)
			if active == 0 {
				break // every group reached its dense early-exit point
			}
			s.maybeRepack(faults, seq, u)
		}
		lanes := sl.lanes
		var busy uint32 // lanes holding a machine of an unfinished group
		for j := 0; j < nl; j++ {
			if !sl.gDone[j] {
				sl.gUnits[j]++
				busy |= 1 << uint(sl.seg[2*j].lane)
			}
		}
		for l := 0; l < lanes; l++ {
			if sl.activeMask[l] != 0 {
				busy |= 1 << uint(l)
			}
		}
		laneCycles += int64(lanes)
		idle += int64(lanes - bits.OnesCount32(busy))

		s.slabWalk(seq, u, false)
		if len(sl.pairs) > 0 {
			sl.resolveBridges()
			s.slabWalk(seq, u, true)
		}
		vals := sl.vals
		if traceAct && !sl.gDone[0] {
			s.traceActivity(sl.tgs[0], vals, lanes)
		}
		// Detection: word-parallel diff over each output's lane words. A
		// group's faults sit in fault order across at most two ascending
		// lanes, so for every group the emission order (time, then PO
		// index, then fault) is exactly the dense kernel's, and per-group
		// trace streams and DetTime/Detected are bit-identical.
		for poi, r := range lay.po {
			base := int(r) * lanes
			for l := 0; l < lanes; l++ {
				am := sl.activeMask[l]
				if am == 0 {
					continue
				}
				d := slabDiff(vals[base+l]) & am
				for ; d != 0; d &= d - 1 {
					slot := trailingZeros(d)
					fi := int(sl.faultAt[l*64+slot])
					out.Detected[fi] = true
					out.DetTime[fi] = t0 + u
					det++
					am &^= 1 << uint(slot)
					j := fi/GroupSize - g0
					sl.gActive[j] &^= 1 << uint(fi%GroupSize+1)
					if tg := sl.tgs[j]; tg != nil {
						tg.Detect(fi, t0+u, poi)
					}
				}
				sl.activeMask[l] = am
			}
		}
		if opts.OutputHook != nil {
			// A hook turns the early exits off, so no repack has run and
			// lane j still holds exactly group g0+j.
			for j := 0; j < nl; j++ {
				po := s.poScratch[:0]
				for _, r := range lay.po {
					po = append(po, vals[int(r)*lanes+j])
				}
				s.poScratch = po
				lo := (g0 + j) * GroupSize
				opts.OutputHook(lo, min(lo+GroupSize, len(faults)), u, po)
			}
		}
		if opts.ObserveLines {
			for r, id := range lay.node {
				base := r * lanes
				for l := 0; l < lanes; l++ {
					for d := slabDiff(vals[base+l]) &^ 1; d != 0; d &= d - 1 {
						if fi := sl.faultAt[l*64+trailingZeros(d)]; fi >= 0 {
							out.Lines[fi].Set(int(id))
						}
					}
				}
			}
		}
		if eligible {
			for j := 0; j < nl; j++ {
				if !sl.gDone[j] && sl.gActive[j] == 0 {
					sl.gDone[j] = true
					active--
				}
			}
			if active == 0 {
				break // every group reached its dense early-exit point
			}
		}
		s.slabClock()
	}
	if opts.SaveStates {
		// No repack ran (SaveStates rules out the early exits): lane j
		// still holds group g0+j.
		for j := 0; j < nl; j++ {
			saved := make([]logic.W, len(c.DFFs))
			for k := range saved {
				saved[k] = sl.state[k*nl+j]
			}
			out.FinalStates.groups[g0+j] = saved
		}
		s.slabHistory(out.FinalStates, false)
	}
	var vec int64
	for j := 0; j < nl; j++ {
		sl.tgs[j].SetVectors(sl.gUnits[j])
		sl.tgs[j] = nil
		vec += int64(sl.gUnits[j])
	}
	// GateEvals stays dense-equivalent, so the counter pins hold it exact;
	// the batching and packing win shows up in wall clock and w.Slab.
	w.GateEvals += vec * int64(len(s.gateID))
	w.Vectors += vec
	w.GroupPasses += int64(nl)
	w.Slab.Passes++
	w.Slab.LaneCycles += laneCycles
	w.Slab.LanesIdle += idle
	return det
}

// slabRepeatExits applies the repeat exit at the top of time unit u to
// every unfinished group of the batch and returns the number it finished.
// It evaluates repeatWatch's rule on each group's own machines, wherever a
// repack put them: slot 0 of the group's first lane and the group's live
// watched slots must hold the flip-flop and launch-history words of the
// checkpoint, and the input from u on must repeat the input from the
// checkpoint on. The checkpoint then moves on Brent's schedule, which
// depends on u alone, so one checkpoint of the whole slab serves every
// group.
func (s *Simulator) slabRepeatExits(seq *sim.Sequence, u int, w *Work) int {
	sl := s.slab
	if u == 0 {
		sl.ckAt, sl.ckSpan = 0, 1
		sl.checkpoint()
		return 0
	}
	n := 0
	suffix := 0 // 0: not yet compared, 1: the input repeats, -1: it does not
	for j, done := range sl.gDone {
		if done || !sl.groupRepeats(j) {
			continue
		}
		if suffix == 0 {
			suffix = -1
			if suffixRepeats(seq, sl.ckAt, u) {
				suffix = 1
			}
		}
		if suffix < 0 {
			break // no group can exit at u
		}
		// The group can detect nothing more: stop counting and scanning it.
		sl.gDone[j] = true
		for _, sg := range sl.seg[2*j : 2*j+2] {
			sl.activeMask[sg.lane] &^= sg.own
		}
		w.RepeatExits++
		n++
	}
	if u-sl.ckAt == sl.ckSpan {
		sl.ckAt, sl.ckSpan = u, 2*sl.ckSpan
		sl.checkpoint()
	}
	return n
}

// checkpoint records every slot's flip-flop and launch-history words.
func (sl *slabState) checkpoint() {
	sl.ck = append(sl.ck[:0], sl.state...)
	sl.ckPrev = append(sl.ckPrev[:0], sl.transPrev...)
}

// groupRepeats reports whether group j's machines hold their checkpoint
// words: slot 0 and the live watched slots of its first lane, and the live
// watched slots of its second.
func (sl *slabState) groupRepeats(j int) bool {
	s0, s1 := sl.seg[2*j], sl.seg[2*j+1]
	m0 := sl.activeMask[s0.lane]&sl.watched[s0.lane]&s0.own | 1
	m1 := sl.activeMask[s1.lane] & sl.watched[s1.lane] & s1.own
	return sameSlots(sl.state, sl.ck, sl.lanes, s0.lane, m0, s1.lane, m1) &&
		sameSlots(sl.transPrev, sl.ckPrev, sl.lanes, s0.lane, m0, s1.lane, m1)
}

// sameSlots reports whether the row-major words cur and ck (stride lanes)
// agree in the slots m0 of lane l0 and m1 of lane l1 on every row.
func sameSlots(cur, ck []logic.W, lanes, l0 int, m0 uint64, l1 int, m1 uint64) bool {
	for i := 0; i < len(cur); i += lanes {
		a, b := cur[i+l0], ck[i+l0]
		c, d := cur[i+l1], ck[i+l1]
		if ((a.Zeros^b.Zeros)|(a.Ones^b.Ones))&m0|((c.Zeros^d.Zeros)|(c.Ones^d.Ones))&m1 != 0 {
			return false
		}
	}
	return true
}

// repackWeight is the number of walked lane-rows a repack must save per
// word it moves before it runs: moving one flip-flop row of a move costs a
// handful of word operations on two words (now and at the checkpoint),
// about what evaluating a lane-row costs.
const repackWeight = 4

// maybeRepack narrows the slab at the top of time unit u when the live
// faults (undetected watched faults of unfinished groups) fit in fewer
// lanes and the move pays: the lane-rows the narrower slab would save up
// to the end of the sequence must exceed repackWeight × the flip-flop words
// the move rewrites. Both sides are counts, so the decision is
// deterministic. Lanes merge only if every lane runs the same fault-free
// machine in slot 0, now and at the checkpoint; a batch whose lanes differ
// is never repacked.
func (s *Simulator) maybeRepack(faults []fault.Fault, seq *sim.Sequence, u int) {
	sl := s.slab
	lanes := sl.lanes
	if lanes == 1 || sl.mixed {
		return
	}
	live := 0
	for l, m := range sl.activeMask[:lanes] {
		live += bits.OnesCount64(m & sl.watched[l])
	}
	need := max(1, (live+GroupSize-1)/GroupSize)
	if need >= lanes {
		return
	}
	walks := 1
	if len(sl.pairs) > 0 {
		walks = 2
	}
	saved := int64(lanes-need) * int64(seq.Len()-u) * int64(len(s.lay.node)*walks)
	if saved <= int64(repackWeight*len(s.c.DFFs)*(live+need)) {
		return
	}
	if !sl.sameFaultFree() {
		sl.mixed = true
		return
	}
	s.repack(faults, need)
}

// sameFaultFree reports whether slot 0 of every lane holds the same
// fault-free machine, now and at the checkpoint, so that faults of
// different lanes can share one lane's slot 0.
func (sl *slabState) sameFaultFree() bool {
	for _, buf := range [2][]logic.W{sl.state, sl.ck} {
		for i := 0; i < len(buf); i += sl.lanes {
			w0 := buf[i]
			for _, w := range buf[i+1 : i+sl.lanes] {
				if ((w.Zeros^w0.Zeros)|(w.Ones^w0.Ones))&1 != 0 {
					return false
				}
			}
		}
	}
	return true
}

// repack moves the live faults, in fault order, into the first need lanes
// of a slab of stride need: each fault's flip-flop bits, launch history and
// checkpoint words go with it, every destination slot 0 takes lane 0's
// fault-free machine (sameFaultFree has checked they agree), and the
// injection tables are rebuilt for the new layout. Faults no longer live
// (detected, undetectable, or of finished groups) are dropped. Every buffer
// comes from the arena.
func (s *Simulator) repack(faults []fault.Fault, need int) {
	sl := s.slab
	lanes := sl.lanes
	row := s.lay.row
	fa := resize(sl.faultSpare, need*64)
	for i := range fa {
		fa[i] = -1
	}
	sl.moves, sl.histMoves = sl.moves[:0], sl.histMoves[:0]
	p := 0 // destination position: slot p%GroupSize+1 of lane p/GroupSize
	for l := 0; l < lanes; l++ {
		for m := sl.activeMask[l] & sl.watched[l]; m != 0; {
			// One move takes the run of consecutive live slots from slot
			// from, as far as the destination lane has room.
			from := bits.TrailingZeros64(m)
			dl, to := p/GroupSize, p%GroupSize+1
			n := min(bits.TrailingZeros64(^(m >> uint(from))), 64-to)
			mask := (uint64(1)<<uint(n) - 1) << uint(from)
			sl.moves = append(sl.moves, slabMove{src: l, dst: dl, shift: to - from, mask: mask})
			for i := 0; i < n; i++ {
				fi := sl.faultAt[l*64+from+i]
				fa[dl*64+to+i] = fi
				if f := faults[fi]; f.Kind == fault.KindTransition {
					k := int(sl.transIdx[row[f.Node]])*lanes + l
					bit := uint64(1) << uint(from+i)
					sl.histMoves = append(sl.histMoves, slabHistMove{fi: int(fi), lane: dl, slot: to + i,
						cur: slotV(sl.transPrev[k], bit), ck: slotV(sl.ckPrev[k], bit)})
				}
			}
			m &^= mask
			p += n
		}
	}

	// The flip-flop and checkpoint rows narrow in place: row k moves from
	// k*lanes to k*need <= k*lanes, so building the rows in ascending order
	// overwrites only rows already read.
	nff := len(s.c.DFFs)
	sl.state = repackRows(sl.state, nff, lanes, need, sl.moves)
	sl.ck = repackRows(sl.ck, nff, lanes, need, sl.moves)
	sl.faultAt, sl.faultSpare = fa, sl.faultAt
	sl.lanes = need
	sl.vals = sl.vals[:len(s.c.Nodes)*need]

	for j := range sl.gDone {
		sl.seg[2*j], sl.seg[2*j+1] = slabSeg{}, slabSeg{}
	}
	for dl := 0; dl < need; dl++ {
		var occ uint64
		for slot := 1; slot < 64; slot++ {
			fi := fa[dl*64+slot]
			if fi < 0 {
				continue
			}
			bit := uint64(1) << uint(slot)
			occ |= bit
			j := int(fi)/GroupSize - sl.g0
			switch sg := &sl.seg[2*j]; {
			case sg.own == 0:
				*sg = slabSeg{lane: dl, own: bit}
			case sg.lane == dl:
				sg.own |= bit
			default:
				sl.seg[2*j+1].lane = dl
				sl.seg[2*j+1].own |= bit
			}
		}
		sl.activeMask[dl], sl.watched[dl] = occ, occ
	}

	s.buildInjectionSlab(faults)
	sl.ckPrev = resize(sl.ckPrev, len(sl.transPrev))
	clear(sl.ckPrev)
	for _, h := range sl.histMoves {
		k := int(sl.transIdx[row[faults[h.fi].Node]])*need + h.lane
		bit := uint64(1) << uint(h.slot)
		sl.transPrev[k] = forceV(sl.transPrev[k], bit, h.cur)
		sl.ckPrev[k] = forceV(sl.ckPrev[k], bit, h.ck)
	}
}

// repackRows narrows the nrows rows of buf from stride lanes to stride
// need and returns buf[:nrows*need]. Every destination word starts as lane
// 0's fault-free slot 0 broadcast, then each move copies its slots in.
func repackRows(buf []logic.W, nrows, lanes, need int, moves []slabMove) []logic.W {
	var dst [maxSlabLanes]logic.W
	for k := 0; k < nrows; k++ {
		src := buf[k*lanes : (k+1)*lanes]
		moveSlots(dst[:need], src, moves)
		copy(buf[k*need:(k+1)*need], dst[:need])
	}
	return buf[:nrows*need]
}

// moveSlots builds one row of a repacked slab from the row src.
func moveSlots(dst, src []logic.W, moves []slabMove) {
	g := logic.Broadcast(src[0].Get(0))
	for i := range dst {
		dst[i] = g
	}
	for _, mv := range moves {
		w := src[mv.src]
		z, o, m := w.Zeros&mv.mask, w.Ones&mv.mask, mv.mask
		if mv.shift >= 0 {
			z, o, m = z<<uint(mv.shift), o<<uint(mv.shift), m<<uint(mv.shift)
		} else {
			z, o, m = z>>uint(-mv.shift), o>>uint(-mv.shift), m>>uint(-mv.shift)
		}
		d := &dst[mv.dst]
		d.Zeros = d.Zeros&^m | z
		d.Ones = d.Ones&^m | o
	}
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
				slot := trailingZeros(m)
				bit := uint64(1) << uint(slot)
				fi := sl.faultAt[l*64+slot]
				if load {
					sl.transPrev[i] = forceV(sl.transPrev[i], bit, st.hist[fi])
				} else {
					st.hist[fi] = slotV(sl.transPrev[i], bit)
				}
			}
		}
	}
}

// slabWalk evaluates one time unit over the slab's lanes: load the primary
// inputs and the present state, then every run of gates in row order. A
// run's type and fanin count are decided once, and each gate folds its
// fanins in evalW's left-fold order, so every word is the dense kernel's.
// The marked rows are visited after the run (or source block) that
// computes them and before any later level reads them: pin forces
// re-evaluate the lanes that carry them, then place applies the batch's
// injection.
func (s *Simulator) slabWalk(seq *sim.Sequence, u int, replay bool) {
	lay := s.lay
	sl := s.slab
	lanes := sl.lanes
	vals := sl.vals
	nIn := len(s.c.Inputs)
	for k := 0; k < nIn; k++ {
		wv := logic.Broadcast(seq.At(u, k))
		for l := k * lanes; l < (k+1)*lanes; l++ {
			vals[l] = wv
		}
	}
	copy(vals[nIn*lanes:int(lay.gate0)*lanes], sl.state)
	marked := sl.marked
	mi := 0
	for ; mi < len(marked) && marked[mi] < lay.gate0; mi++ {
		r := int(marked[mi])
		sl.place(marked[mi], vals[r*lanes:(r+1)*lanes], replay)
	}
	for i := range lay.runs {
		rn := &lay.runs[i]
		n, nf := int(rn.hi-rn.lo), int(rn.nfan)
		o := int(rn.lo) * lanes
		fan := lay.fanin[rn.f0 : int(rn.f0)+n*nf]
		switch {
		case nf == 1 && rn.inv:
			for _, a := range fan {
				ov := vals[o : o+lanes]
				av := vals[int(a)*lanes:][:len(ov)]
				for l := range ov {
					ov[l] = av[l].Not()
				}
				o += lanes
			}
		case nf == 1:
			for _, a := range fan {
				ov := vals[o : o+lanes]
				av := vals[int(a)*lanes:][:len(ov)]
				for l := range ov {
					ov[l] = av[l]
				}
				o += lanes
			}
		case nf == 2:
			switch rn.typ {
			case circuit.And:
				for g := 0; g < n; g++ {
					ov := vals[o : o+lanes]
					av, bv := vals[int(fan[2*g])*lanes:][:len(ov)], vals[int(fan[2*g+1])*lanes:][:len(ov)]
					for l := range ov {
						ov[l] = av[l].And(bv[l])
					}
					o += lanes
				}
			case circuit.Nand:
				for g := 0; g < n; g++ {
					ov := vals[o : o+lanes]
					av, bv := vals[int(fan[2*g])*lanes:][:len(ov)], vals[int(fan[2*g+1])*lanes:][:len(ov)]
					for l := range ov {
						ov[l] = av[l].And(bv[l]).Not()
					}
					o += lanes
				}
			case circuit.Or:
				for g := 0; g < n; g++ {
					ov := vals[o : o+lanes]
					av, bv := vals[int(fan[2*g])*lanes:][:len(ov)], vals[int(fan[2*g+1])*lanes:][:len(ov)]
					for l := range ov {
						ov[l] = av[l].Or(bv[l])
					}
					o += lanes
				}
			case circuit.Nor:
				for g := 0; g < n; g++ {
					ov := vals[o : o+lanes]
					av, bv := vals[int(fan[2*g])*lanes:][:len(ov)], vals[int(fan[2*g+1])*lanes:][:len(ov)]
					for l := range ov {
						ov[l] = av[l].Or(bv[l]).Not()
					}
					o += lanes
				}
			case circuit.Xor:
				for g := 0; g < n; g++ {
					ov := vals[o : o+lanes]
					av, bv := vals[int(fan[2*g])*lanes:][:len(ov)], vals[int(fan[2*g+1])*lanes:][:len(ov)]
					for l := range ov {
						ov[l] = av[l].Xor(bv[l])
					}
					o += lanes
				}
			default:
				for g := 0; g < n; g++ {
					ov := vals[o : o+lanes]
					av, bv := vals[int(fan[2*g])*lanes:][:len(ov)], vals[int(fan[2*g+1])*lanes:][:len(ov)]
					for l := range ov {
						ov[l] = av[l].Xor(bv[l]).Not()
					}
					o += lanes
				}
			}
		default:
			// Wider gates fold lane by lane, the running word in a register.
			for g := 0; g < n; g++ {
				fl := fan[g*nf : (g+1)*nf]
				for l := 0; l < lanes; l++ {
					v := vals[int(fl[0])*lanes+l]
					switch rn.typ {
					case circuit.And, circuit.Nand:
						for _, f := range fl[1:] {
							v = v.And(vals[int(f)*lanes+l])
						}
					case circuit.Or, circuit.Nor:
						for _, f := range fl[1:] {
							v = v.Or(vals[int(f)*lanes+l])
						}
					default:
						for _, f := range fl[1:] {
							v = v.Xor(vals[int(f)*lanes+l])
						}
					}
					if rn.inv {
						v = v.Not()
					}
					vals[o+l] = v
				}
				o += lanes
			}
		}
		for ; mi < len(marked) && marked[mi] < rn.hi; mi++ {
			r := marked[mi]
			ov := vals[int(r)*lanes : int(r+1)*lanes]
			if sl.mark[r]&markPin != 0 {
				sl.pins(r, rn.typ, lay.fanin[int(rn.f0)+int(r-rn.lo)*nf:][:nf], ov)
			}
			sl.place(r, ov, replay)
		}
	}
}

// pins re-evaluates gate row r in the lanes that carry pin forces there,
// exactly as the dense kernel evaluates its one group: gather, force,
// evalW. With W lanes a batch spans W groups' fault sites, so this slow
// path stays per (gate, lane); per gate it would fire ~W× more often than
// the dense kernel's.
func (sl *slabState) pins(r int32, typ circuit.GateType, fanin []int32, ov []logic.W) {
	var fan [8]logic.W
	lanes := sl.lanes
	e := sl.pinIdx[r]
	forces := sl.pinForces[e]
	for ls := sl.pinLanes[e]; ls != 0; ls &= ls - 1 {
		l := bits.TrailingZeros32(ls)
		in := fan[:0]
		for _, f := range fanin {
			in = append(in, sl.vals[int(f)*lanes+l])
		}
		for _, p := range forces {
			if int(p.lane) == l {
				in[p.pin] = in[p.pin].ForceMask(p.mask, p.bit)
			}
		}
		ov[l] = evalW(typ, in)
	}
}

// slabClock is the clock edge: every flip-flop takes its D input's lane
// words, with D-pin faults applied in the lanes that carry them.
func (s *Simulator) slabClock() {
	lay := s.lay
	sl := s.slab
	lanes := sl.lanes
	vals, state := sl.vals, sl.state
	for k, d := range lay.d {
		d := int(d) * lanes
		for l := 0; l < lanes; l++ {
			state[k*lanes+l] = vals[d+l]
		}
	}
	nIn := int32(len(s.c.Inputs))
	for _, r := range sl.marked {
		if r >= lay.gate0 {
			break
		}
		if r < nIn || sl.mark[r]&markPin == 0 {
			continue
		}
		k := int(r - nIn)
		d := int(lay.d[k]) * lanes
		e := sl.pinIdx[r]
		forces := sl.pinForces[e]
		for m := sl.pinLanes[e]; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			wv := vals[d+l]
			for _, p := range forces {
				if int(p.lane) == l {
					wv = wv.ForceMask(p.mask, p.bit)
				}
			}
			state[k*lanes+l] = wv
		}
	}
}
