package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
)

// benchmarkFile is BENCHMARK.json: the workloads, and every metric with its
// unit, its better direction and, for the end-to-end metrics, the share of
// the parent's median by which it may worsen before a change is a regression.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []namedWhy    `json:"workloads"`
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type namedWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// compare prints, for every workload and metric that both directories hold
// runs of, each side's median and quartiles, the share of same-seed pairs
// that B wins, and B's verdict against A.
func compare(w io.Writer, specPath, dirA, dirB string) error {
	var spec benchmarkFile
	if err := readJSON(specPath, &spec); err != nil {
		return err
	}
	a, err := loadReports(dirA)
	if err != nil {
		return err
	}
	b, err := loadReports(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-15s %-32s %32s %32s %8s %6s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change", "B won", "verdict")
	rows := 0
	for _, wl := range spec.Workloads {
		for trace, metrics := range [][]benchMetric{spec.EndToEnd, spec.PerLayer} {
			ra, rb := a[runKey{wl.Name, trace == 1}], b[runKey{wl.Name, trace == 1}]
			if len(ra) == 0 || len(rb) == 0 {
				continue
			}
			for _, m := range metrics {
				c := compareMetric(ra, rb, m)
				if trace == 1 && c.a.med == 0 && c.b.med == 0 {
					continue // a layer this workload never crosses
				}
				fmt.Fprintf(w, "%-15s %-32s %32s %32s %+7.1f%% %6s  %s\n", wl.Name, m.Name,
					c.a, c.b, 100*c.change, fmt.Sprintf("%d/%d", c.won, c.pairs), c.verdict)
				rows++
			}
		}
	}
	if rows == 0 {
		return fmt.Errorf("%s and %s share no workload runs", dirA, dirB)
	}
	return nil
}

type runKey struct {
	workload string
	trace    bool
}

// loadReports reads every run report in dir, keyed by workload and trace,
// then by seed.
func loadReports(dir string) (map[runKey]map[uint64]*report, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[runKey]map[uint64]*report{}
	for _, p := range paths {
		var rep report
		if err := readJSON(p, &rep); err != nil {
			return nil, err
		}
		if rep.Workload == "" {
			continue // a combined file of runAll
		}
		k := runKey{rep.Workload, rep.Trace}
		if out[k] == nil {
			out[k] = map[uint64]*report{}
		}
		out[k][rep.Seed] = &rep
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s holds no run reports", dir)
	}
	return out, nil
}

type summary struct{ med, q1, q3 float64 }

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{median(xs), q1, q3}
}

func (s summary) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.med, s.q1, s.q3)
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 { return ratio(s.q3-s.q1, math.Abs(s.med)) }

type comparison struct {
	a, b       summary
	change     float64 // (B − A) / A of the medians
	won, pairs int
	verdict    string
}

func compareMetric(ra, rb map[uint64]*report, m benchMetric) comparison {
	var xa, xb []float64
	for _, r := range ra {
		xa = append(xa, r.Metrics[m.Name].Value)
	}
	for _, r := range rb {
		xb = append(xb, r.Metrics[m.Name].Value)
	}
	higher := m.Better == "higher"
	c := comparison{a: summarize(xa), b: summarize(xb)}
	c.change = ratio(c.b.med-c.a.med, math.Abs(c.a.med))
	for seed, r := range ra {
		if s, ok := rb[seed]; ok {
			c.pairs++
			if better(s.Metrics[m.Name].Value, r.Metrics[m.Name].Value, higher) {
				c.won++
			}
		}
	}
	c.verdict = "no bound"
	if m.Bound != nil {
		c.verdict = verdict(xa, xb, c.won, c.pairs, higher, *m.Bound)
	}
	return c
}

// better reports whether x beats y; equal values beat neither.
func better(x, y float64, higher bool) bool {
	if higher {
		return x > y
	}
	return x < y
}

// verdict judges B's runs against A's: worse when B's median is worse by
// more than the bound, whatever the spread. Otherwise, when either side's
// quartile spread is wider than the bound, better if every run of B beats
// every run of A and unresolved if not. Otherwise better when B wins at
// least nine tenths of the same-seed pairs and the medians differ by more
// than A's own quartile spread, and unchanged when it does not.
func verdict(a, b []float64, won, pairs int, higher bool, bound float64) string {
	sa, sb := summarize(a), summarize(b)
	worseBy := ratio(sb.med-sa.med, math.Abs(sa.med))
	if higher {
		worseBy = -worseBy
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && better(y, x, higher)
		}
	}
	switch {
	case worseBy > bound:
		return "worse"
	case sa.spread() > bound || sb.spread() > bound:
		if allBetter {
			return "better"
		}
		return "unresolved"
	case worseBy < 0 && math.Abs(sb.med-sa.med) > sa.q3-sa.q1 && wins(won, pairs, allBetter):
		return "better"
	}
	return "unchanged"
}

// wins applies the nine-tenths rule to the same-seed pairs, or, without
// pairs, asks every run of B to beat every run of A.
func wins(won, pairs int, allBetter bool) bool {
	if pairs == 0 {
		return allBetter
	}
	return 10*won >= 9*pairs
}
