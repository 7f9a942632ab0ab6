package obsv

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/telemetry"
)

// ReportSchema identifies the JSON run-report format.
const ReportSchema = "wbist-report/v1"

// Report is the digested view of one run: the coverage-vs-vector curve of the
// deterministic sequence with its knee, the phase cost breakdown, kernel
// event statistics, the slowest fault groups and the per-assignment detection
// attribution. Build it with BuildReport, render it with Render or marshal it
// as JSON.
type Report struct {
	Schema      string `json:"schema"`
	Circuit     string `json:"circuit"`
	Kernel      string `json:"kernel"`
	TotalFaults int    `json:"total_faults"`
	Targets     int    `json:"targets"`
	TLen        int    `json:"t_len"`

	Coverage CoverageStats `json:"coverage"`
	// Curve is the coverage-vs-vector curve of T: one point per time unit at
	// which at least one new fault was detected.
	Curve []CurvePoint `json:"curve"`
	// Phases is the wall/alloc breakdown per span path (empty without
	// metrics input).
	Phases []PhaseReport `json:"phases,omitempty"`
	// KernelCounters sums the hot-path counters over the root spans of the
	// metrics records (no ancestor span among the records): spans nest.
	KernelCounters map[string]int64 `json:"kernel_counters,omitempty"`
	// SlowGroups are the fault groups of the T segment that simulated the
	// most vectors (ties broken by group index), most expensive first.
	SlowGroups []GroupCost `json:"slow_groups,omitempty"`
	// Assignments is the per-window detection attribution, T first.
	Assignments []AssignmentReport `json:"assignments"`
	// PeakActivity and MeanActivity summarise the T segment's per-cycle
	// fault-free switching profile (0 when no activity was recorded).
	PeakActivity int     `json:"peak_activity"`
	MeanActivity float64 `json:"mean_activity"`
}

// CoverageStats summarises the T coverage curve.
type CoverageStats struct {
	// Detected is the number of universe faults T detects; Fraction is
	// Detected / TotalFaults.
	Detected int     `json:"detected"`
	Fraction float64 `json:"fraction"`
	// Knee is the curve point with maximum distance from the chord joining
	// the curve's endpoints — past it, extra vectors buy little coverage.
	Knee CurvePoint `json:"knee"`
	// T50..T99 are the first time units reaching 50/90/95/99% of the final
	// detection count (-1 when the curve is empty).
	T50 int `json:"t50"`
	T90 int `json:"t90"`
	T95 int `json:"t95"`
	T99 int `json:"t99"`
}

// CurvePoint is one point of a coverage curve.
type CurvePoint struct {
	// Vector is the time unit; Detected the cumulative detections up to and
	// including it; Fraction is Detected over the fault universe.
	Vector   int     `json:"vector"`
	Detected int     `json:"detected"`
	Fraction float64 `json:"fraction"`
}

// PhaseReport is one span path's aggregated cost.
type PhaseReport struct {
	Span        string  `json:"span"`
	Count       int     `json:"count"`
	WallSeconds float64 `json:"wall_s"`
	AllocMB     float64 `json:"alloc_mb"`
}

// GroupCost is one fault group's simulation cost in vectors.
type GroupCost struct {
	Group   int `json:"group"`
	Vectors int `json:"vectors"`
}

// AssignmentReport is one window's detection attribution.
type AssignmentReport struct {
	// Assignment is -1 for the deterministic sequence T.
	Assignment int `json:"assignment"`
	Vectors    int `json:"vectors"`
	Faults     int `json:"faults"`
	Detected   int `json:"detected"`
	// FirstDet/LastDet are the earliest and latest detection times inside
	// the window (-1 when it detected nothing).
	FirstDet int `json:"first_det"`
	LastDet  int `json:"last_det"`
}

// maxSlowGroups bounds the slowest-groups table.
const maxSlowGroups = 5

// BuildReport digests a run trace and (optionally) the per-phase metrics of
// the run into a report. Either input may be nil/empty; the report covers
// whatever is available.
func BuildReport(rt *RunTrace, phases []telemetry.PhaseStats) *Report {
	rep := &Report{Schema: ReportSchema}
	if rt != nil {
		rep.Circuit = rt.Circuit
		rep.Kernel = rt.Kernel
		rep.TotalFaults = rt.TotalFaults
		rep.Targets = rt.Targets
		rep.TLen = rt.TLen
		for i := range rt.Segments {
			seg := &rt.Segments[i]
			rep.Assignments = append(rep.Assignments, assignmentReport(seg))
			if seg.Assignment == -1 {
				rep.Curve = coverageCurve(seg, rt.TotalFaults)
				rep.Coverage = coverageStats(rep.Curve)
				rep.SlowGroups = slowGroups(seg.GroupVectors)
				rep.PeakActivity, rep.MeanActivity = activityStats(seg.Activity)
			}
		}
	}
	spans := make(map[string]bool, len(phases))
	for _, p := range phases {
		spans[p.Span] = true
	}
	for _, p := range phases {
		rep.Phases = append(rep.Phases, PhaseReport{
			Span:        p.Span,
			Count:       p.Count,
			WallSeconds: p.Wall().Seconds(),
			AllocMB:     float64(p.AllocBytes) / (1 << 20),
		})
		if hasAncestor(p.Span, spans) {
			continue
		}
		for name, v := range p.Counters {
			if rep.KernelCounters == nil {
				rep.KernelCounters = map[string]int64{}
			}
			rep.KernelCounters[name] += v
		}
	}
	return rep
}

// hasAncestor reports whether an ancestor path of span is in spans.
func hasAncestor(span string, spans map[string]bool) bool {
	for i := strings.LastIndexByte(span, '/'); i > 0; i = strings.LastIndexByte(span[:i], '/') {
		if spans[span[:i]] {
			return true
		}
	}
	return false
}

func assignmentReport(seg *Segment) AssignmentReport {
	ar := AssignmentReport{
		Assignment: seg.Assignment,
		Vectors:    seg.Vectors,
		Faults:     seg.Faults,
		Detected:   seg.Detected,
		FirstDet:   -1,
		LastDet:    -1,
	}
	for _, ev := range seg.Events {
		if ar.FirstDet < 0 || ev.Time < ar.FirstDet {
			ar.FirstDet = ev.Time
		}
		if ev.Time > ar.LastDet {
			ar.LastDet = ev.Time
		}
	}
	return ar
}

// coverageCurve folds a segment's events into cumulative detections per time
// unit, one point per time unit with at least one new detection.
func coverageCurve(seg *Segment, universe int) []CurvePoint {
	perTime := map[int]int{}
	for _, ev := range seg.Events {
		perTime[ev.Time]++
	}
	times := make([]int, 0, len(perTime))
	for t := range perTime {
		times = append(times, t)
	}
	sort.Ints(times)
	curve := make([]CurvePoint, 0, len(times))
	cum := 0
	for _, t := range times {
		cum += perTime[t]
		p := CurvePoint{Vector: t, Detected: cum}
		if universe > 0 {
			p.Fraction = float64(cum) / float64(universe)
		}
		curve = append(curve, p)
	}
	return curve
}

func coverageStats(curve []CurvePoint) CoverageStats {
	cs := CoverageStats{T50: -1, T90: -1, T95: -1, T99: -1}
	if len(curve) == 0 {
		return cs
	}
	last := curve[len(curve)-1]
	cs.Detected = last.Detected
	cs.Fraction = last.Fraction
	// Knee: the point farthest from the chord joining the curve's endpoints
	// (the classic max-chord-distance knee detector). With one point, the
	// point itself is the knee.
	x0, y0 := float64(curve[0].Vector), float64(curve[0].Detected)
	dx, dy := float64(last.Vector)-x0, float64(last.Detected)-y0
	best, bestIdx := -1.0, 0
	for i, p := range curve {
		// Unnormalised distance from p to the chord; the common normaliser
		// |(dx,dy)| does not change the argmax.
		d := dy*(float64(p.Vector)-x0) - dx*(float64(p.Detected)-y0)
		if d < 0 {
			d = -d
		}
		if d > best {
			best, bestIdx = d, i
		}
	}
	cs.Knee = curve[bestIdx]
	mark := func(q float64) int {
		goal := int(q*float64(cs.Detected) + 0.999999) // ceil without drifting on exact multiples
		if goal <= 0 {
			goal = 1
		}
		for _, p := range curve {
			if p.Detected >= goal {
				return p.Vector
			}
		}
		return -1
	}
	cs.T50, cs.T90, cs.T95, cs.T99 = mark(0.50), mark(0.90), mark(0.95), mark(0.99)
	return cs
}

func slowGroups(vectors []int) []GroupCost {
	costs := make([]GroupCost, 0, len(vectors))
	for g, v := range vectors {
		costs = append(costs, GroupCost{Group: g, Vectors: v})
	}
	sort.Slice(costs, func(i, j int) bool {
		if costs[i].Vectors != costs[j].Vectors {
			return costs[i].Vectors > costs[j].Vectors
		}
		return costs[i].Group < costs[j].Group
	})
	if len(costs) > maxSlowGroups {
		costs = costs[:maxSlowGroups]
	}
	return costs
}

func activityStats(act []int) (peak int, mean float64) {
	if len(act) == 0 {
		return 0, 0
	}
	sum := 0
	for _, a := range act {
		sum += a
		if a > peak {
			peak = a
		}
	}
	return peak, float64(sum) / float64(len(act))
}

// Render writes the human-readable form of a report.
func Render(w io.Writer, rep *Report) {
	fmt.Fprintf(w, "run report: circuit=%s kernel=%s faults=%d targets=%d |T|=%d\n",
		orDash(rep.Circuit), orDash(rep.Kernel), rep.TotalFaults, rep.Targets, rep.TLen)

	if len(rep.Curve) > 0 {
		cs := rep.Coverage
		fmt.Fprintf(w, "\ncoverage of T: %d/%d faults (%.1f%%)\n",
			cs.Detected, rep.TotalFaults, 100*cs.Fraction)
		fmt.Fprintf(w, "  knee at vector %d (%d detected, %.1f%%)\n",
			cs.Knee.Vector, cs.Knee.Detected, 100*cs.Knee.Fraction)
		fmt.Fprintf(w, "  50%%/90%%/95%%/99%% of detections by vector %d/%d/%d/%d\n",
			cs.T50, cs.T90, cs.T95, cs.T99)
		renderCurve(w, rep.Curve)
	}
	if rep.PeakActivity > 0 {
		fmt.Fprintf(w, "\nfault-free activity: peak %d nodes/cycle, mean %.1f\n",
			rep.PeakActivity, rep.MeanActivity)
	}
	if len(rep.SlowGroups) > 0 {
		fmt.Fprintf(w, "\nslowest fault groups (vectors simulated):\n")
		for _, g := range rep.SlowGroups {
			fmt.Fprintf(w, "  group %3d  %6d vectors\n", g.Group, g.Vectors)
		}
	}
	if len(rep.Assignments) > 0 {
		fmt.Fprintf(w, "\ndetection attribution per window:\n")
		fmt.Fprintf(w, "  %-10s %8s %8s %9s %10s %9s\n",
			"window", "vectors", "faults", "detected", "first-det", "last-det")
		for _, a := range rep.Assignments {
			name := fmt.Sprintf("A%d", a.Assignment)
			if a.Assignment == -1 {
				name = "T"
			}
			fmt.Fprintf(w, "  %-10s %8d %8d %9d %10d %9d\n",
				name, a.Vectors, a.Faults, a.Detected, a.FirstDet, a.LastDet)
		}
	}
	if len(rep.Phases) > 0 {
		fmt.Fprintf(w, "\nphase breakdown:\n")
		fmt.Fprintf(w, "  %-40s %5s %10s %10s\n", "span", "runs", "wall", "alloc")
		for _, p := range rep.Phases {
			fmt.Fprintf(w, "  %-40s %5d %9.3fs %8.1fMB\n",
				p.Span, p.Count, p.WallSeconds, p.AllocMB)
		}
	}
	if len(rep.KernelCounters) > 0 {
		fmt.Fprintf(w, "\nkernel counters:\n")
		names := make([]string, 0, len(rep.KernelCounters))
		for name := range rep.KernelCounters {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  %-28s %d\n", name, rep.KernelCounters[name])
		}
	}
}

// renderCurve draws a small fixed-width ASCII sparkline of the curve.
func renderCurve(w io.Writer, curve []CurvePoint) {
	const cols, rows = 60, 8
	last := curve[len(curve)-1]
	if last.Vector == 0 || last.Detected == 0 {
		return
	}
	// For each column, the cumulative detections at the column's last vector.
	height := make([]int, cols)
	ci := 0
	cum := 0
	for col := 0; col < cols; col++ {
		limit := (col + 1) * (last.Vector + 1) / cols
		for ci < len(curve) && curve[ci].Vector < limit {
			cum = curve[ci].Detected
			ci++
		}
		height[col] = (cum*rows + last.Detected - 1) / last.Detected
	}
	fmt.Fprintf(w, "  coverage curve (x: vector 0..%d, y: detections 0..%d)\n", last.Vector, last.Detected)
	for r := rows; r >= 1; r-- {
		var sb strings.Builder
		sb.WriteString("  |")
		for _, h := range height {
			if h >= r {
				sb.WriteByte('#')
			} else {
				sb.WriteByte(' ')
			}
		}
		fmt.Fprintln(w, sb.String())
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", cols))
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
