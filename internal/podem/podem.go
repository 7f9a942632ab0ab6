// Package podem implements a bounded sequential test generator for single
// stuck-at faults: PODEM-style branch-and-bound over the primary-input
// assignments of a k-time-frame window, evaluated with good/faulty value
// pairs (the D-calculus). The window starts from explicitly given good and
// faulty machine states, so a caller can continue from wherever an existing
// test sequence left off — the generated vectors are appended to that
// sequence. This is the deterministic phase of the STRATEGATE substitute
// (see internal/atpg): random search finds the easy faults, PODEM targets
// the stragglers.
package podem

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Options bound the search.
type Options struct {
	// Frames is the number of time frames in the window (default 8).
	Frames int
	// MaxBacktracks bounds the decision backtracks (default 500).
	MaxBacktracks int
}

func (o *Options) fill() {
	if o.Frames == 0 {
		o.Frames = 8
	}
	if o.MaxBacktracks == 0 {
		o.MaxBacktracks = 500
	}
}

// Result reports a search outcome.
type Result struct {
	// Found reports whether a detecting window was found.
	Found bool
	// Seq is the input window (length = Options.Frames), with every
	// unassigned input filled with 0. Valid only when Found.
	Seq *sim.Sequence
	// Backtracks counts the backtracks consumed.
	Backtracks int
}

// pair is a good/faulty value pair.
type pair struct {
	g, f logic.V
}

func (p pair) divergent() bool {
	return p.g.IsBinary() && p.f.IsBinary() && p.g != p.f
}

// searcher holds the per-call state.
type searcher struct {
	c     *circuit.Circuit
	flt   fault.Fault
	opts  Options
	pi    [][]logic.V // pi[frame][input]: current assignments (X = free)
	vals  [][]pair    // vals[frame][node]: implied values under pi
	detAt int         // first frame with a divergent primary output, -1
	// diverged[frame] counts the nodes of vals[frame] whose good and faulty
	// values differ binarily; the D-frontier search skips frames without.
	diverged []int
	// inputIdx maps an Input node to its index in c.Inputs.
	inputIdx []int
	// Event-propagation scratch: buckets[level] holds the queued gates of
	// the frame being processed, queued marks them, and next collects the
	// flip-flops whose D input changed (re-evaluated in the next frame, from
	// cur).
	buckets   [][]circuit.NodeID
	queued    []bool
	next, cur []circuit.NodeID
}

// FindTest searches for an input window of opts.Frames vectors that detects
// the fault when applied after states goodInit / faultyInit (one value per
// flip-flop; X allowed). On success the returned sequence, applied from
// those states, makes a primary output differ binarily between the good and
// faulty machines (callers should re-verify with the fault simulator, which
// internal/atpg does).
func FindTest(c *circuit.Circuit, f fault.Fault, goodInit, faultyInit []logic.V, opts Options) (*Result, error) {
	opts.fill()
	if len(goodInit) != c.NumDFFs() || len(faultyInit) != c.NumDFFs() {
		return nil, fmt.Errorf("podem: state width %d/%d for circuit with %d flip-flops",
			len(goodInit), len(faultyInit), c.NumDFFs())
	}
	s := newSearcher(c, f, opts)
	s.initialise(goodInit, faultyInit)
	res := &Result{}
	found := s.search(res)
	res.Found = found
	telemetry.Add(telemetry.CtrBacktracks, int64(res.Backtracks))
	if found {
		res.Seq = s.window()
	}
	return res, nil
}

// window returns the current assignments as a sequence, with every
// unassigned input filled with 0.
func (s *searcher) window() *sim.Sequence {
	seq := sim.NewSequence(s.c.NumInputs())
	vec := make([]logic.V, s.c.NumInputs())
	for _, assigned := range s.pi {
		for i, v := range assigned {
			if !v.IsBinary() {
				v = logic.Zero
			}
			vec[i] = v
		}
		seq.Append(vec)
	}
	return seq
}

// newSearcher allocates the per-call state with every input unassigned.
func newSearcher(c *circuit.Circuit, f fault.Fault, opts Options) *searcher {
	s := &searcher{
		c:        c,
		flt:      f,
		opts:     opts,
		pi:       make([][]logic.V, opts.Frames),
		vals:     make([][]pair, opts.Frames),
		diverged: make([]int, opts.Frames),
		inputIdx: make([]int, len(c.Nodes)),
		buckets:  make([][]circuit.NodeID, c.MaxLevel()+1),
		queued:   make([]bool, len(c.Nodes)),
	}
	for fr := range s.pi {
		s.pi[fr] = make([]logic.V, c.NumInputs())
		for i := range s.pi[fr] {
			s.pi[fr][i] = logic.X
		}
		s.vals[fr] = make([]pair, len(c.Nodes))
	}
	for k, id := range c.Inputs {
		s.inputIdx[id] = k
	}
	return s
}

// initialise computes the whole window once, from the given start states
// under the current assignments. Every later change goes through assign.
func (s *searcher) initialise(goodInit, faultyInit []logic.V) {
	c := s.c
	for fr, vals := range s.vals {
		for k, id := range c.Inputs {
			vals[id] = s.forced(id, pair{s.pi[fr][k], s.pi[fr][k]})
		}
		for k, id := range c.DFFs {
			if fr == 0 {
				vals[id] = s.forced(id, pair{goodInit[k], faultyInit[k]})
			} else {
				vals[id] = s.nextState(fr-1, id)
			}
		}
		for _, id := range c.Order {
			vals[id] = s.eval(id, vals)
		}
		for _, v := range vals {
			if v.divergent() {
				s.diverged[fr]++
			}
		}
	}
	s.detect()
}

// assign sets input k of frame start to v and propagates the change forward,
// event-driven: within a frame only the fanout cone of changed nodes is
// re-evaluated, in level order, and the change crosses into the next frame
// only through flip-flops whose value actually moves. Frames before start
// are never touched. Afterwards vals equals a whole-window simulation under
// the new assignment.
func (s *searcher) assign(start, k int, v logic.V) {
	s.pi[start][k] = v
	id := s.c.Inputs[k]
	s.set(start, id, s.forced(id, pair{v, v}))
	for fr := start; ; fr++ {
		vals := s.vals[fr]
		for lvl := range s.buckets {
			for _, id := range s.buckets[lvl] {
				s.queued[id] = false
				s.set(fr, id, s.eval(id, vals))
			}
			s.buckets[lvl] = s.buckets[lvl][:0]
		}
		if len(s.next) == 0 {
			break // the next state is unchanged: later frames are too
		}
		// A flip-flop fed directly by another flip-flop is rescheduled
		// while the list is walked, so walk a swapped-out copy.
		s.next, s.cur = s.cur[:0], s.next
		for _, id := range s.cur {
			s.set(fr+1, id, s.nextState(fr, id))
		}
	}
	s.detect()
}

// set stores node id's value in frame fr and, if it changed, schedules its
// gate fanouts in this frame and its flip-flop fanouts for the next one.
func (s *searcher) set(fr int, id circuit.NodeID, v pair) {
	old := s.vals[fr][id]
	if old == v {
		return
	}
	s.vals[fr][id] = v
	if old.divergent() {
		s.diverged[fr]--
	}
	if v.divergent() {
		s.diverged[fr]++
	}
	for _, o := range s.c.Nodes[id].Fanouts {
		n := &s.c.Nodes[o]
		switch {
		case n.Type == circuit.DFF:
			if fr+1 < s.opts.Frames {
				s.next = append(s.next, o)
			}
		case !s.queued[o]:
			s.queued[o] = true
			s.buckets[n.Level] = append(s.buckets[n.Level], o)
		}
	}
}

// detect recomputes detAt from the primary outputs.
func (s *searcher) detect() {
	s.detAt = -1
	for fr, vals := range s.vals {
		for _, id := range s.c.Outputs {
			if vals[id].divergent() {
				s.detAt = fr
				return
			}
		}
	}
}

// nextState returns flip-flop id's value in frame fr+1: its D input in
// frame fr, with the pin-0 branch fault and the stem fault applied.
func (s *searcher) nextState(fr int, id circuit.NodeID) pair {
	v := s.vals[fr][s.c.Nodes[id].Fanins[0]]
	if s.flt.Pin == 0 && s.flt.Node == id {
		v.f = logic.V(s.flt.Stuck)
	}
	return s.forced(id, v)
}

// forced applies the stem fault at node id to the faulty rail.
func (s *searcher) forced(id circuit.NodeID, v pair) pair {
	if s.flt.Pin < 0 && s.flt.Node == id {
		v.f = logic.V(s.flt.Stuck)
	}
	return v
}

// eval evaluates gate id on both rails from its fanin values in vals, with
// the branch fault forced on its pin and the stem fault on its output. It
// folds the fanins one at a time, so any fanin count is accepted.
func (s *searcher) eval(id circuit.NodeID, vals []pair) pair {
	n := &s.c.Nodes[id]
	p := s.fanin(vals, id, 0)
	switch n.Type {
	case circuit.Buf, circuit.Not:
	case circuit.And, circuit.Nand:
		for pin := 1; pin < len(n.Fanins); pin++ {
			v := s.fanin(vals, id, pin)
			p.g, p.f = logic.And(p.g, v.g), logic.And(p.f, v.f)
		}
	case circuit.Or, circuit.Nor:
		for pin := 1; pin < len(n.Fanins); pin++ {
			v := s.fanin(vals, id, pin)
			p.g, p.f = logic.Or(p.g, v.g), logic.Or(p.f, v.f)
		}
	case circuit.Xor, circuit.Xnor:
		for pin := 1; pin < len(n.Fanins); pin++ {
			v := s.fanin(vals, id, pin)
			p.g, p.f = logic.Xor(p.g, v.g), logic.Xor(p.f, v.f)
		}
	default:
		panic(fmt.Sprintf("podem: eval on non-gate type %v", n.Type))
	}
	switch n.Type {
	case circuit.Not, circuit.Nand, circuit.Nor, circuit.Xnor:
		p.g, p.f = p.g.Not(), p.f.Not()
	}
	return s.forced(id, p)
}

// fanin reads gate id's input pin from vals, with the branch fault applied.
func (s *searcher) fanin(vals []pair, id circuit.NodeID, pin int) pair {
	v := vals[s.c.Nodes[id].Fanins[pin]]
	if s.flt.Pin == pin && s.flt.Node == id {
		v.f = logic.V(s.flt.Stuck)
	}
	return v
}

// objective returns the next (node, frame, good-value) goal, or ok=false if
// the fault cannot progress (no activation possible and no D-frontier).
func (s *searcher) objective() (circuit.NodeID, int, logic.V, bool) {
	// Activation: some frame where the fault site carries the stuck value's
	// complement on the good rail.
	siteVal := func(fr int) logic.V {
		if s.flt.Pin < 0 {
			return s.vals[fr][s.flt.Node].g
		}
		return s.vals[fr][s.c.Nodes[s.flt.Node].Fanins[s.flt.Pin]].g
	}
	activated := false
	for fr := 0; fr < s.opts.Frames && !activated; fr++ {
		if siteVal(fr).IsBinary() && siteVal(fr) != logic.V(s.flt.Stuck) {
			activated = true
		}
	}
	if !activated {
		want := logic.V(s.flt.Stuck).Not()
		for fr := 0; fr < s.opts.Frames; fr++ {
			if siteVal(fr) == logic.X {
				target := s.flt.Node
				if s.flt.Pin >= 0 {
					target = s.c.Nodes[s.flt.Node].Fanins[s.flt.Pin]
				}
				return target, fr, want, true
			}
		}
		return 0, 0, logic.X, false // site pinned to the stuck value everywhere
	}
	// Propagation: find a gate with a divergent input and an X output whose
	// side inputs can still be set (good value X). Branch faults make the
	// divergence visible only on the faulted pin, not on the driver node, so
	// the pin forcing is re-applied here.
	for fr := 0; fr < s.opts.Frames; fr++ {
		vals := s.vals[fr]
		if s.diverged[fr] == 0 && !s.pinDiverged(fr) {
			continue // no fault effect anywhere in this frame
		}
		for _, id := range s.c.Order {
			if vals[id].g != logic.X && vals[id].f != logic.X {
				continue
			}
			n := &s.c.Nodes[id]
			hasD := false
			for pin, fid := range n.Fanins {
				v := vals[fid]
				if s.flt.Pin == pin && s.flt.Node == id {
					v.f = logic.V(s.flt.Stuck)
				}
				if v.divergent() {
					hasD = true
					break
				}
			}
			if !hasD {
				continue
			}
			for _, fid := range n.Fanins {
				if vals[fid].g == logic.X {
					return fid, fr, nonControlling(n.Type), true
				}
			}
		}
	}
	return 0, 0, logic.X, false
}

// pinDiverged reports whether a branch fault's pin carries a fault effect in
// frame fr: its driver's good value is the complement of the stuck value.
func (s *searcher) pinDiverged(fr int) bool {
	if s.flt.Pin < 0 {
		return false
	}
	g := s.vals[fr][s.c.Nodes[s.flt.Node].Fanins[s.flt.Pin]].g
	return g.IsBinary() && g != logic.V(s.flt.Stuck)
}

// nonControlling returns the side-input value that lets a fault effect pass
// through a gate of type t.
func nonControlling(t circuit.GateType) logic.V {
	switch t {
	case circuit.And, circuit.Nand:
		return logic.One
	case circuit.Or, circuit.Nor:
		return logic.Zero
	default: // XOR/XNOR/NOT/BUF: any value propagates
		return logic.Zero
	}
}

// backtrace maps an objective to an unassigned primary input (input index,
// frame, value), walking backward through X-valued lines and across flip-
// flops into earlier frames. ok=false if the objective dead-ends (e.g. it
// reaches the fixed initial state).
func (s *searcher) backtrace(id circuit.NodeID, fr int, v logic.V) (int, int, logic.V, bool) {
	for steps := 0; steps < len(s.c.Nodes)*s.opts.Frames; steps++ {
		n := &s.c.Nodes[id]
		switch n.Type {
		case circuit.Input:
			k := s.inputIdx[id]
			if s.pi[fr][k] != logic.X {
				return 0, 0, logic.X, false // already pinned
			}
			return k, fr, v, true
		case circuit.DFF:
			if fr == 0 {
				return 0, 0, logic.X, false // initial state is fixed
			}
			fr--
			id = n.Fanins[0]
		case circuit.Not:
			id = n.Fanins[0]
			v = v.Not()
		case circuit.Buf:
			id = n.Fanins[0]
		case circuit.Xor, circuit.Xnor:
			next, ok := s.pickXFanin(n, fr)
			if !ok {
				return 0, 0, logic.X, false
			}
			id = next
			v = logic.Zero // free choice; the other inputs adapt
		default: // AND/NAND/OR/NOR
			want := v
			if n.Type == circuit.Nand || n.Type == circuit.Nor {
				want = want.Not()
			}
			next, ok := s.pickXFanin(n, fr)
			if !ok {
				return 0, 0, logic.X, false
			}
			id = next
			if n.Type == circuit.And || n.Type == circuit.Nand {
				v = want // 1 needs all ones; 0 needs a zero: either way drive `want`
			} else {
				v = want
			}
		}
	}
	return 0, 0, logic.X, false
}

// pickXFanin returns a fanin whose good value is X.
func (s *searcher) pickXFanin(n *circuit.Node, fr int) (circuit.NodeID, bool) {
	for _, fid := range n.Fanins {
		if s.vals[fr][fid].g == logic.X {
			return fid, true
		}
	}
	return 0, false
}

type decision struct {
	input, frame int
	value        logic.V
	flipped      bool
}

// search runs the PODEM decision loop.
func (s *searcher) search(res *Result) bool {
	var stack []decision
	for {
		if s.detAt >= 0 {
			return true
		}
		id, fr, v, ok := s.objective()
		if ok {
			if k, pfr, pv, traced := s.backtrace(id, fr, v); traced {
				stack = append(stack, decision{input: k, frame: pfr, value: pv})
				s.assign(pfr, k, pv)
				continue
			}
		}
		// Dead end: backtrack.
		for {
			if len(stack) == 0 {
				return false
			}
			res.Backtracks++
			if res.Backtracks > s.opts.MaxBacktracks {
				return false
			}
			d := &stack[len(stack)-1]
			if !d.flipped {
				d.flipped = true
				d.value = d.value.Not()
				s.assign(d.frame, d.input, d.value)
				break
			}
			s.assign(d.frame, d.input, logic.X)
			stack = stack[:len(stack)-1]
		}
	}
}
