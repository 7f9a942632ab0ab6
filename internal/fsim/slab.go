package fsim

import (
	"math/bits"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obsv"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// The slab kernel simulates W fault groups per pass. Per-node state is a
// contiguous gate-major slab of W dual-rail words — vals[int(id)*W + lane] —
// so one levelized walk advances W×64 machines per gate visit from hot cache
// lines: the W words of a gate and of its fanins are adjacent, and the walk
// touches each gate's cache lines once per time unit instead of once per
// group. Fault injection masks are precomputed per (node, lane) in the same
// gate-major layout, and detection scans are word-parallel XOR-style diffs
// (slabDiff) over the W lane words of each primary output.
//
// Bit-identity with the dense kernel holds by construction: lanes never
// interact (each lane carries its own fault-free machine in slot 0 and its
// own injection masks), every lane's gate evaluation is exactly the dense
// kernel's evaluation over that lane's words, and per-lane bookkeeping
// (activeMask draining, early-exit cycle counts, trace emission order,
// telemetry totals) mirrors the dense per-group bookkeeping. A lane whose
// group is fully detected or reaches a repeat exit stops counting (laneUnits
// freezes, matching the dense early exits) but keeps being evaluated until
// the whole batch is done; those wasted lane-cycles are counted on
// fsim.slab_lanes_idle.

// maxSlabLanes caps the automatic lane selection (and keeps user-specified
// lane counts from exploding the arena): 16 lanes × 64 machines = 1024
// machines per gate visit, past which the per-gate slab of the suite-sized
// circuits no longer fits the cache lines one walk keeps hot.
const maxSlabLanes = 16

// slabLanesAuto picks the lane count W from the netlist size against an L2
// cache budget: the hot working set of one slab cycle is ~32 bytes per node
// per lane (16 B dual-rail value + 16 B stem-injection masks), and the walk
// should stay resident across consecutive time units.
func (s *Simulator) slabLanesAuto() int {
	const l2Budget = 1 << 20
	per := 32 * len(s.c.Nodes)
	w := l2Budget / per
	if w < 1 {
		return 1
	}
	if w > maxSlabLanes {
		return maxSlabLanes
	}
	return w
}

// slabWidth reports the lane width W the slab kernel will use under opts —
// the adaptive choice when opts.SlabLanes <= 0 — before the per-run clamp to
// the number of fault groups.
func (s *Simulator) slabWidth(opts Options) int {
	w := opts.SlabLanes
	if w <= 0 {
		w = s.slabLanesAuto()
	}
	if w > maxSlabLanes {
		w = maxSlabLanes
	}
	if opts.OutputHook != nil {
		w = 1
	}
	return w
}

// slabPinForce is one pin-fault force of a slab batch: lane selects the
// fault group, mask/bit the slot force within that lane's word.
type slabPinForce struct {
	lane int32
	pin  int32
	mask uint64
	bit  bool
}

// slabState is the arena of the slab kernel: every scratch buffer a batch
// needs, owned by one Simulator (like ev *eventState), grown on demand and
// reused across batches and runs so steady-state slab passes allocate
// nothing. All slabs are gate-major with stride `lanes`; a tail batch with
// fewer active groups than the stride simply leaves the upper lanes unused.
type slabState struct {
	lanes int // allocated stride W

	vals  []logic.W // len(nodes)*lanes: vals[int(id)*lanes+l]
	state []logic.W // len(DFFs)*lanes: state[k*lanes+l]

	// per-(node,lane) stem-fault injection masks; stemLanes[id] is the
	// bitmask of lanes with a mask at id, so the uninjected common path pays
	// one word load per gate and injection loops touch only owning lanes —
	// with W lanes a batch spans W groups' fault sites, so treating "some
	// lane injects here" as "inject every lane" would put ~W× more gate
	// visits on the slow path than the dense kernel ever sees.
	stemMask0 []uint64
	stemMask1 []uint64
	stemLanes []uint32
	stemNodes []circuit.NodeID // touched nodes, for targeted clearing

	// pin-fault forces: pinIdx[node] is -1 or an index into pinForces
	// (forces of all lanes for that node, each tagged with its lane);
	// pinLanes[idx] is the bitmask of lanes with forces, so only those lanes
	// are re-evaluated off the fast path.
	pinIdx    []int32
	pinNodes  []circuit.NodeID
	pinForces [][]slabPinForce
	pinLanes  []uint32

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

// slabFor returns the simulator's slab arena sized for stride lanes,
// allocating or re-allocating only when the stride changes (a stride change
// resets the injection tables along with the slabs, so the targeted-clearing
// bookkeeping stays consistent).
func (s *Simulator) slabFor(lanes int) *slabState {
	sl := s.slab
	if sl == nil {
		sl = &slabState{}
		s.slab = sl
	}
	if sl.lanes != lanes {
		n := len(s.c.Nodes)
		sl.lanes = lanes
		sl.vals = make([]logic.W, n*lanes)
		sl.state = make([]logic.W, len(s.c.DFFs)*lanes)
		sl.stemMask0 = make([]uint64, n*lanes)
		sl.stemMask1 = make([]uint64, n*lanes)
		sl.stemLanes = make([]uint32, n)
		sl.pinIdx = make([]int32, n)
		for i := range sl.pinIdx {
			sl.pinIdx[i] = -1
		}
		sl.stemNodes = sl.stemNodes[:0]
		sl.pinNodes = sl.pinNodes[:0]
		sl.pinForces = sl.pinForces[:0]
		sl.pinLanes = sl.pinLanes[:0]
		sl.laneLo = make([]int, lanes)
		sl.laneHi = make([]int, lanes)
		sl.activeMask = make([]uint64, lanes)
		sl.laneUnits = make([]int, lanes)
		sl.laneDone = make([]bool, lanes)
		sl.watched = make([]uint64, lanes)
		sl.watch = make([]repeatWatch, lanes)
		sl.tgs = make([]*obsv.GroupTrace, lanes)
	}
	return sl
}

// inject applies the stem-fault masks of slab index i (= node*lanes+lane).
func (sl *slabState) inject(i int, w logic.W) logic.W {
	if m := sl.stemMask0[i]; m != 0 {
		w = w.ForceMask(m, false)
	}
	if m := sl.stemMask1[i]; m != 0 {
		w = w.ForceMask(m, true)
	}
	return w
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

// buildInjectionSlab rebuilds the per-(node,lane) injection tables for the
// nl groups of a batch. Masks and pin indices are cleared only at the nodes
// the previous batch touched, so steady-state batches pay O(sites), not
// O(nodes×lanes); the retained outer/inner capacity of pinForces makes the
// rebuild allocation-free once warm.
func (s *Simulator) buildInjectionSlab(faults []fault.Fault, nl int) {
	sl := s.slab
	lanes := sl.lanes
	for _, n := range sl.stemNodes {
		base := int(n) * lanes
		for l := 0; l < lanes; l++ {
			sl.stemMask0[base+l] = 0
			sl.stemMask1[base+l] = 0
		}
		sl.stemLanes[n] = 0
	}
	sl.stemNodes = sl.stemNodes[:0]
	for _, n := range sl.pinNodes {
		sl.pinIdx[n] = -1
	}
	sl.pinNodes = sl.pinNodes[:0]
	sl.pinForces = sl.pinForces[:0]
	sl.pinLanes = sl.pinLanes[:0]
	for l := 0; l < nl; l++ {
		lo, hi := sl.laneLo[l], sl.laneHi[l]
		for k := lo; k < hi; k++ {
			f := faults[k]
			slot := uint(k - lo + 1)
			if f.Pin < 0 {
				i := int(f.Node)*lanes + l
				if f.Stuck == 0 {
					sl.stemMask0[i] |= 1 << slot
				} else {
					sl.stemMask1[i] |= 1 << slot
				}
				if sl.stemLanes[f.Node] == 0 {
					sl.stemNodes = append(sl.stemNodes, f.Node)
				}
				sl.stemLanes[f.Node] |= 1 << uint(l)
			} else {
				idx := sl.pinIdx[f.Node]
				if idx < 0 {
					idx = int32(len(sl.pinForces))
					sl.pinIdx[f.Node] = idx
					if cap(sl.pinForces) > len(sl.pinForces) {
						sl.pinForces = sl.pinForces[:idx+1]
						sl.pinForces[idx] = sl.pinForces[idx][:0]
					} else {
						sl.pinForces = append(sl.pinForces, nil)
					}
					sl.pinLanes = append(sl.pinLanes[:idx], 0)
					sl.pinNodes = append(sl.pinNodes, f.Node)
				}
				sl.pinForces[idx] = append(sl.pinForces[idx],
					slabPinForce{lane: int32(l), pin: int32(f.Pin), mask: 1 << slot, bit: f.Stuck == 1})
				sl.pinLanes[idx] |= 1 << uint(l)
			}
		}
	}
}

// runSlab is the slab kernel's counterpart of Run's dispatch body: it shards
// batches-of-W (instead of single groups) over the worker pool. Group
// independence makes the merge bit-identical to sequential for any worker
// count and any W, exactly as for the other kernels.
func (s *Simulator) runSlab(seq *sim.Sequence, faults []fault.Fault, numGroups, stop int, opts Options, out *Outcome) {
	// slabWidth resolves opts.SlabLanes (adaptive when <= 0, clamped to
	// maxSlabLanes) and drops to W=1 under OutputHook, whose ordering
	// contract (group 0's whole sequence first, then group 1's, ...) is
	// incompatible with interleaving groups in one pass.
	w := s.slabWidth(opts)
	if w > numGroups {
		w = numGroups
	}

	first := 0
	if opts.AbortAfterFirstGroupIfNone {
		// The Section 4.2 effort reduction: group 0 runs alone (one active
		// lane) so the abort decision sees exactly the dense kernel's view.
		var tb counterBatch
		out.NumDetected = s.runSlabBatch(seq, faults, 0, 1, w, stop, opts, out, &tb)
		tb.flush()
		if out.NumDetected == 0 {
			out.Aborted = numGroups > 1
			return
		}
		first = 1
	}
	rem := numGroups - first
	if rem == 0 {
		return
	}
	numBatches := (rem + w - 1) / w

	workers := opts.Workers
	if workers < 1 || opts.OutputHook != nil {
		workers = 1
	}
	if workers > numBatches {
		workers = numBatches
	}

	if workers <= 1 {
		var tb counterBatch
		for b := 0; b < numBatches; b++ {
			if ctxDone(opts.Ctx) {
				out.Cancelled = true
				tb.cancelled += int64(numGroups - (first + b*w))
				break
			}
			g0 := first + b*w
			out.NumDetected += s.runSlabBatch(seq, faults, g0, min(w, numGroups-g0), w, stop, opts, out, &tb)
		}
		tb.flush()
		return
	}

	// Parallel fan-out over batch indices: each batch writes the disjoint
	// outcome regions of its own groups, per-batch detection counts merge in
	// batch order afterwards.
	detected := make([]int, numBatches)
	claimed := fanOut(opts.Ctx, s.workerSims(workers), numBatches, func(ws *Simulator, b int, tb *counterBatch) {
		g0 := first + b*w
		detected[b] = ws.runSlabBatch(seq, faults, g0, min(w, numGroups-g0), w, stop, opts, out, tb)
	})
	for _, n := range detected {
		out.NumDetected += n
	}
	// Every claimed batch ran to completion; the rest were skipped due to
	// cancellation. Unclaimed batches before the tail are full-width, so the
	// skipped group count is exact.
	if claimed < numBatches {
		out.Cancelled = true
		telemetry.Add(telemetry.CtrGroupsCancelled, int64(numGroups-first-claimed*w))
	}
}

// runSlabBatch simulates the nl fault groups g0..g0+nl-1 in lanes 0..nl-1 of
// a stride-wide slab, writing only those groups' disjoint regions of out and
// returning the number of detections. One time unit is one levelized walk
// evaluating all nl lanes of every gate.
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

	// Both early exits follow the dense rule per lane; the batch itself
	// only breaks when every lane is done.
	eligible := earlyExitEligible(opts)
	units := 0
	det := 0
	active := nl
	var fan [8]logic.W

	for u := 0; u < stop; u++ {
		if eligible {
			for l := 0; l < nl; l++ {
				if !sl.laneDone[l] && sl.watch[l].repeats(u, state, l, lanes, nil, sl.activeMask[l]&sl.watched[l]|1, seq, stop) {
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
		// Load primary inputs and present state into every lane.
		for k, id := range c.Inputs {
			wv := logic.Broadcast(seq.At(u, k))
			base := int(id) * lanes
			for l := 0; l < nl; l++ {
				vals[base+l] = wv
			}
			for m := sl.stemLanes[id]; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				vals[base+l] = sl.inject(base+l, wv)
			}
		}
		for k, id := range c.DFFs {
			base := int(id) * lanes
			sbase := k * lanes
			copy(vals[base:base+nl], state[sbase:sbase+nl])
			for m := sl.stemLanes[id]; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				vals[base+l] = sl.inject(base+l, state[sbase+l])
			}
		}
		// One levelized walk over all lanes. The per-fanin-count and
		// per-gate-type dispatch happens once per gate; the inner lane loops
		// run over adjacent words.
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
					copy(ov, av)
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
				for l := range ov {
					in := fan[:0]
					for _, f := range s.faninList[flo:fhi] {
						in = append(in, vals[int(f)*lanes+l])
					}
					ov[l] = evalW(gt, in)
				}
			}
			if idx := sl.pinIdx[id]; idx >= 0 {
				// Re-evaluate only the lanes with forces at this gate,
				// exactly as the dense kernel evaluates its one group:
				// gather, force, evalW.
				forces := sl.pinForces[idx]
				for m := sl.pinLanes[idx]; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
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
			if m := sl.stemLanes[id]; m != 0 {
				for ; m != 0; m &= m - 1 {
					l := bits.TrailingZeros32(m)
					ov[l] = sl.inject(base+l, ov[l])
				}
			}
		}
		if traceAct && !sl.laneDone[0] {
			s.traceActivitySlab(sl.tgs[0], lanes)
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
			copy(state[sbase:sbase+nl], vals[f0:f0+nl])
			if idx := sl.pinIdx[id]; idx >= 0 {
				forces := sl.pinForces[idx]
				for m := sl.pinLanes[idx]; m != 0; m &= m - 1 {
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

// traceActivitySlab is traceActivity reading slot-0 bits through the slab's
// gate-major stride (lane 0 of node i lives at i*lanes). Group 0 is always
// lane 0 of batch 0, and tracing follows lane 0's counted cycles, so the
// sample stream matches the dense kernel's cycle for cycle.
func (s *Simulator) traceActivitySlab(tg *obsv.GroupTrace, lanes int) {
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
		w := s.slab.vals[i*lanes]
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
