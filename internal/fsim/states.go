package fsim

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/logic"
)

// States is the machine state a run leaves at the end of its sequence, per
// fault: the fault-free machine's flip-flops, each fault's flip-flops and
// each transition fault's launch history (its site's nominal value in the
// last simulated time unit). A run with Options.SaveStates returns it in
// Outcome.FinalStates; a run given it as Options.InitialStates continues
// every machine exactly where the saving run stopped, for every fault model
// and kernel.
//
// Fault i is stored in the slot a run over the same list gives it (slot
// i%GroupSize+1 of group i/GroupSize, slot 0 holding the fault-free
// machine), so continuing over that list loads each group with one copy.
// Select repacks a subset into the same layout for the shorter list. A
// States value is immutable once its run has returned.
//
// A States value also records the absolute time unit at which its run
// ended: the time unit the run started at (where its own InitialStates
// ended, 0 for a run from Options.Init) plus its sequence length. A run
// continued from it starts there.
type States struct {
	n      int         // number of faults
	nff    int         // flip-flops per machine
	end    int         // the time unit at which the saving run ended
	groups [][]logic.W // groups[g][k]: flip-flop k of every machine of group g (slot 0: fault-free)
	hist   []logic.V   // hist[i]: launch history of fault i (nil: no transition faults)
}

// newStates allocates the saved state of a run over faults in numGroups
// groups that ends at time unit end; hist is allocated (all X) when the
// list carries transition faults.
func newStates(faults []fault.Fault, numGroups, nff, end int) *States {
	st := &States{n: len(faults), nff: nff, end: end, groups: make([][]logic.W, numGroups)}
	for _, f := range faults {
		if f.Kind == fault.KindTransition {
			st.hist = make([]logic.V, len(faults))
			for i := range st.hist {
				st.hist[i] = logic.X
			}
			break
		}
	}
	return st
}

// Len is the number of faults the states describe.
func (st *States) Len() int { return st.n }

// start returns the time unit at which a run from st begins: where st's
// run ended, or 0 for a run from Options.Init (st nil).
func (st *States) start() int {
	if st == nil {
		return 0
	}
	return st.end
}

// Good returns the fault-free machine's flip-flop values as fault i's group
// carries them (every group simulates its own copy of that machine).
func (st *States) Good(i int) []logic.V { return st.slot(i, 0) }

// Faulty returns the flip-flop values of fault i's machine.
func (st *States) Faulty(i int) []logic.V { return st.slot(i, uint(i%GroupSize+1)) }

// slot returns the flip-flop values of one machine of fault i's group.
func (st *States) slot(i int, slot uint) []logic.V {
	g := st.groups[i/GroupSize]
	out := make([]logic.V, st.nff)
	for k := range out {
		out[k] = g[k].Get(slot)
	}
	return out
}

// LaunchHistory returns fault i's launch history: for a transition fault
// its site's nominal value in the last time unit, X for any other fault.
func (st *States) LaunchHistory(i int) logic.V {
	if st.hist == nil {
		return logic.X
	}
	return st.hist[i]
}

// Select returns the states of the faults i with keep(i), in order: the
// initial states of a run over that subset of the saving run's fault list.
func (st *States) Select(keep func(i int) bool) *States {
	var idx []int
	for i := 0; i < st.n; i++ {
		if keep(i) {
			idx = append(idx, i)
		}
	}
	if len(idx) == st.n {
		return st
	}
	out := &States{n: len(idx), nff: st.nff, end: st.end,
		groups: make([][]logic.W, (len(idx)+GroupSize-1)/GroupSize)}
	for g := range out.groups {
		// Slot 0 and the unused slots take the fault-free machine of the
		// group's first fault.
		first := st.groups[idx[g*GroupSize]/GroupSize]
		ws := make([]logic.W, st.nff)
		for k := range ws {
			ws[k] = logic.Broadcast(first[k].Get(0))
		}
		for j := g * GroupSize; j < min((g+1)*GroupSize, len(idx)); j++ {
			i := idx[j]
			src, from := st.groups[i/GroupSize], uint(i%GroupSize+1)
			to := uint(j%GroupSize + 1)
			for k := range ws {
				ws[k] = ws[k].Set(to, src[k].Get(from))
			}
		}
		out.groups[g] = ws
	}
	if st.hist != nil {
		out.hist = make([]logic.V, len(idx))
		for j, i := range idx {
			out.hist[j] = st.hist[i]
		}
	}
	return out
}

// FlipFlops returns the states without the launch history: a run continued
// from them starts every transition site's history at X, as a run from time
// 0 does. For stuck-at and bridge faults it is the same state.
func (st *States) FlipFlops() *States {
	if st.hist == nil {
		return st
	}
	cp := *st
	cp.hist = nil
	return &cp
}

// check panics unless st can seed a run over nFaults faults of a circuit
// with nff flip-flops: a silently mis-shaped continuation state would
// corrupt the run.
func (st *States) check(nFaults, nff int) {
	if st.n != nFaults {
		panic(fmt.Sprintf("fsim: InitialStates holds %d fault states for %d faults (Select the states of the run's fault list)",
			st.n, nFaults))
	}
	if st.nff != nff {
		panic(fmt.Sprintf("fsim: InitialStates has %d flip-flops per machine for a circuit with %d flip-flops",
			st.nff, nff))
	}
}

// loadHistory seeds the launch history of the current group's transition
// sites (faults[lo:...]) from a continued run's initial states; a run from
// time 0 leaves them at X.
func (s *Simulator) loadHistory(st *States, lo int) {
	if st.hist == nil {
		return
	}
	for _, sites := range s.transSites {
		for i := range sites {
			sites[i].prev = st.hist[lo+trailingZeros(sites[i].mask)-1]
		}
	}
}

// saveHistory records the launch history of the current group's transition
// sites at the end of the pass.
func (s *Simulator) saveHistory(st *States, lo int) {
	if st.hist == nil {
		return
	}
	for _, sites := range s.transSites {
		for _, t := range sites {
			st.hist[lo+trailingZeros(t.mask)-1] = t.prev
		}
	}
}
