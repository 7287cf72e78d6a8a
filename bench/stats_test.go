package main

import (
	"math"
	"testing"
)

func seq(lo, hi int) []float64 {
	var out []float64
	for v := lo; v <= hi; v++ {
		out = append(out, float64(v))
	}
	return out
}

func same(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b)) || math.Abs(a-b) < 1e-12
}

func TestMedianAndMAD(t *testing.T) {
	for _, tc := range []struct {
		name     string
		xs       []float64
		med, mad float64
	}{
		{"empty", nil, math.NaN(), math.NaN()},
		{"one", []float64{7}, 7, 0},
		{"odd", []float64{3, 1, 2}, 2, 1},
		{"even", []float64{4, 1, 3, 2}, 2.5, 1},
		{"ties", []float64{5, 5, 5, 1}, 5, 0},
		{"outlier", []float64{1, 2, 3, 4, 100}, 3, 1},
	} {
		if got := median(tc.xs); !same(got, tc.med) {
			t.Errorf("%s: median = %v, want %v", tc.name, got, tc.med)
		}
		if got := mad(tc.xs); !same(got, tc.mad) {
			t.Errorf("%s: mad = %v, want %v", tc.name, got, tc.mad)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), including its extrapolation for tiny n.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 3, 3, 3}, [3]float64{3, 3, 3}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{6}, [3]float64{6, 6, 6}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if !same(q1, tc.want[0]) || !same(q2, tc.want[1]) || !same(q3, tc.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", tc.xs, q1, q2, q3, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); !same(got, 1) {
		t.Errorf("spread = %v, want 1", got)
	}
}

// TestTail checks the "at least ten samples beyond" rule: the reported
// percentile is the highest one with ten samples strictly above it.
func TestTail(t *testing.T) {
	thirty := make([]float64, 30)
	for i := range thirty {
		thirty[i] = 4
	}
	for _, tc := range []struct {
		name  string
		xs    []float64
		pct   float64
		value float64
		ok    bool
	}{
		{"empty", nil, 0, math.NaN(), false},
		{"too few", seq(1, 19), 0, math.NaN(), false},
		{"median only", seq(1, 20), 50, 10, true},
		{"p90 at 100", seq(1, 100), 90, 90, true},
		{"p90 at 109", seq(1, 109), 90, 99, true},
		{"p99 at 1000", seq(1, 1000), 99, 990, true},
		{"all tied", thirty, 0, math.NaN(), false},
		// Ties with the percentile's value do not count as beyond it: the
		// top eleven samples are equal, so p90 has none beyond.
		{"tied top", append(seq(1, 89), 500, 500, 500, 500, 500, 500, 500, 500, 500, 500, 500), 75, 75, true},
	} {
		pct, v, ok := tail(tc.xs)
		if pct != tc.pct || !same(v, tc.value) || ok != tc.ok {
			t.Errorf("%s: tail = (%v, %v, %v), want (%v, %v, %v)", tc.name, pct, v, ok, tc.pct, tc.value, tc.ok)
		}
	}
}
