// Package core implements the paper's contribution: built-in generation of
// weighted test sequences for synchronous sequential circuits.
//
// A weight is a binary subsequence α (represented as a string over '0'/'1').
// Assigning weight α to primary input i means input i is driven with the
// periodic sequence α^r = αα…α. Weights are derived from a deterministic
// test sequence T so that around the detection time of each target fault the
// weighted sequence reproduces T exactly on every input (Section 3 of the
// paper); weight assignments are selected per Section 4 and pruned by
// reverse-order simulation (Section 4.3).
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/logic"
	"repro/internal/sim"
)

// Assignment is a weight assignment: one subsequence per primary input.
type Assignment struct {
	Subs []string
}

// String renders an assignment as "(01, 0, 100, 1)".
func (a Assignment) String() string {
	return "(" + strings.Join(a.Subs, ", ") + ")"
}

// MaxLen returns the longest subsequence length in the assignment.
func (a Assignment) MaxLen() int {
	m := 0
	for _, s := range a.Subs {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// HasLen reports whether some subsequence in the assignment has exactly
// length n.
func (a Assignment) HasLen(n int) bool {
	for _, s := range a.Subs {
		if len(s) == n {
			return true
		}
	}
	return false
}

// GenSequence produces the weighted test sequence T_G of length lg for the
// assignment: T_G(u)[i] = α_i[u mod |α_i|]. This models every weight FSM
// being reset at the start of the assignment's window and free-running from
// there (Section 3).
func (a Assignment) GenSequence(lg int) *sim.Sequence {
	seq := sim.NewSequence(len(a.Subs))
	vec := make([]logic.V, len(a.Subs))
	for u := 0; u < lg; u++ {
		for i, s := range a.Subs {
			vec[i] = bitAt(s, u%len(s))
		}
		seq.Append(vec)
	}
	return seq
}

func bitAt(s string, k int) logic.V {
	if s[k] == '1' {
		return logic.One
	}
	return logic.Zero
}

// DeriveWeight computes the unique subsequence α of length ls whose repeated
// sequence α^r reproduces ti on the window of the last ls time units ending
// at u: α[u' mod ls] = ti[u'] for u-ls+1 ≤ u' ≤ u (the equation of Section
// 3). It returns ok=false if the window does not fit (ls > u+1) or if the
// window contains an unknown value.
func DeriveWeight(ti []logic.V, u, ls int) (string, bool) {
	if ls <= 0 || ls > u+1 || u >= len(ti) {
		return "", false
	}
	buf := make([]byte, ls)
	for u2 := u - ls + 1; u2 <= u; u2++ {
		v := ti[u2]
		if !v.IsBinary() {
			return "", false
		}
		if v == logic.One {
			buf[u2%ls] = '1'
		} else {
			buf[u2%ls] = '0'
		}
	}
	return string(buf), true
}

// PerfectMatch reports whether α^r matches ti on the last len(α) time units
// ending at u: ti[u'] == α[u' mod |α|] for u-|α|+1 ≤ u' ≤ u.
func PerfectMatch(alpha string, ti []logic.V, u int) bool {
	ls := len(alpha)
	if ls == 0 || ls > u+1 || u >= len(ti) {
		return false
	}
	for u2 := u - ls + 1; u2 <= u; u2++ {
		if ti[u2] != bitAt(alpha, u2%ls) {
			return false
		}
	}
	return true
}

// CountMatches returns n_m: the number of time units u' over the whole
// sequence at which α^r(u') equals ti[u'].
func CountMatches(alpha string, ti []logic.V) int {
	n := 0
	for u := range ti {
		if ti[u] == bitAt(alpha, u%len(alpha)) {
			n++
		}
	}
	return n
}

// PrimitivePeriod returns the shortest subsequence producing the same
// repeated sequence as α (e.g. "0101" → "01", "000" → "0"). Used for the
// FSM accounting of Section 5 ("we eliminate α2 and use α1 instead").
func PrimitivePeriod(alpha string) string {
	n := len(alpha)
	for p := 1; p < n; p++ {
		if n%p != 0 {
			continue
		}
		ok := true
		for i := p; i < n; i++ {
			if alpha[i] != alpha[i%p] {
				ok = false
				break
			}
		}
		if ok {
			return alpha[:p]
		}
	}
	return alpha
}

// AiEntry is one candidate subsequence in a set A_i: the subsequence, its
// index in the weight set S, and its total match count n_m with T_i.
type AiEntry struct {
	Index   int
	Alpha   string
	Matches int
}

// BuildAi computes the set A_i of Section 4.1 for input projection ti at
// detection time u: every subsequence in S of length at most maxLen that
// perfectly matches the tail of ti ending at u, ordered by decreasing n_m,
// breaking ties by increasing length and then by position in S (shorter
// subsequences rank higher on ties, which the paper notes keeps generated
// sequences' periods large relative to the individual subsequences).
func BuildAi(s []string, ti []logic.V, u, maxLen int) []AiEntry {
	var out []AiEntry
	for idx, alpha := range s {
		if len(alpha) > maxLen {
			continue
		}
		if !PerfectMatch(alpha, ti, u) {
			continue
		}
		out = append(out, AiEntry{Index: idx, Alpha: alpha, Matches: CountMatches(alpha, ti)})
	}
	sort.SliceStable(out, func(a, b int) bool {
		ea, eb := out[a], out[b]
		if ea.Matches != eb.Matches {
			return ea.Matches > eb.Matches
		}
		if len(ea.Alpha) != len(eb.Alpha) {
			return len(ea.Alpha) < len(eb.Alpha)
		}
		return ea.Index < eb.Index
	})
	return out
}

// WeightSet is an ordered, deduplicated collection of subsequences (the set
// S of Section 3).
type WeightSet struct {
	Subs  []string
	index map[string]int
}

// NewWeightSet returns an empty weight set.
func NewWeightSet() *WeightSet {
	return &WeightSet{index: make(map[string]int)}
}

// Add inserts α if not already present and returns its index.
func (w *WeightSet) Add(alpha string) int {
	if i, ok := w.index[alpha]; ok {
		return i
	}
	i := len(w.Subs)
	w.Subs = append(w.Subs, alpha)
	w.index[alpha] = i
	return i
}

// truncate keeps the first n subsequences, undoing the Adds that came
// after them.
func (w *WeightSet) truncate(n int) {
	for _, alpha := range w.Subs[n:] {
		delete(w.index, alpha)
	}
	w.Subs = w.Subs[:n]
}

// Contains reports whether α is in the set.
func (w *WeightSet) Contains(alpha string) bool {
	_, ok := w.index[alpha]
	return ok
}

// Len returns the number of subsequences.
func (w *WeightSet) Len() int { return len(w.Subs) }

// HardwareStats summarises the BIST hardware cost of a set of weight
// assignments, as reported in Table 6 of the paper.
type HardwareStats struct {
	// NumSeqs is the number of weight assignments (= generated sequences).
	NumSeqs int
	// NumSubs is the number of distinct subsequences defining them.
	NumSubs int
	// MaxLen is the length of the longest subsequence.
	MaxLen int
	// NumFSMs is the number of weight-generating FSMs after primitive-period
	// reduction: one FSM per distinct subsequence length (Section 3).
	NumFSMs int
	// NumOutputs is the total number of FSM outputs: one per distinct
	// subsequence after primitive-period reduction.
	NumOutputs int
}

// Accounting computes the Table 6 hardware statistics for a set of weight
// assignments.
func Accounting(omega []Assignment) HardwareStats {
	st := HardwareStats{NumSeqs: len(omega)}
	subs := map[string]bool{}
	prim := map[string]bool{}
	lengths := map[int]bool{}
	for _, a := range omega {
		for _, s := range a.Subs {
			if !subs[s] {
				subs[s] = true
			}
			p := PrimitivePeriod(s)
			if !prim[p] {
				prim[p] = true
				lengths[len(p)] = true
			}
			if len(s) > st.MaxLen {
				st.MaxLen = len(s)
			}
		}
	}
	st.NumSubs = len(subs)
	st.NumFSMs = len(lengths)
	st.NumOutputs = len(prim)
	return st
}

// Validate checks that an assignment is well-formed (non-empty binary
// subsequences, one per input).
func (a Assignment) Validate(numInputs int) error {
	if len(a.Subs) != numInputs {
		return fmt.Errorf("core: assignment has %d subsequences for %d inputs", len(a.Subs), numInputs)
	}
	for i, s := range a.Subs {
		if len(s) == 0 {
			return fmt.Errorf("core: empty subsequence for input %d", i)
		}
		for k := 0; k < len(s); k++ {
			if s[k] != '0' && s[k] != '1' {
				return fmt.Errorf("core: subsequence %q for input %d is not binary", s, i)
			}
		}
	}
	return nil
}
