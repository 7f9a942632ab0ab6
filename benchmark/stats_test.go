package main

import "testing"

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1000, 99}, // ten samples beyond p99
		{999, 95},
		{48, 75}, // twelve beyond p75, 4.8 beyond p90
		{40, 75},
		{39, 50},
		{100, 90},
		{20, 50},
		{19, 0}, // not even the median has ten beyond it
		{0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The quartiles must match Python's statistics.quantiles(xs, n=4), which the
// benchmark's acceptance check uses; the wants are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 7}, 0.75, 8.25},
		{[]float64{4}, 4, 4},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 … 1
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(xs[:48], 75); got != 988 {
		t.Errorf("p75 of 953..1000 = %v, want 988 (twelve samples beyond it)", got)
	}
}
