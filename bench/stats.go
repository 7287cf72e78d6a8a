package main

import (
	"math"
	"slices"
)

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	return s
}

// median returns the middle value of xs (the mean of the two middle values
// for even n), or NaN for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs with the
// "exclusive" method of Python's statistics.quantiles(xs, n=4), so spreads
// printed here match the ones computed by tools built on that function. It
// needs at least two samples; with fewer every quartile is the lone value
// (or NaN when xs is empty).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	switch len(xs) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	q := func(i int) float64 {
		// Python clamps j before computing delta, so tiny n extrapolates
		// exactly as it does there.
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range of xs as a share of its median: the
// run-to-run noise figure every bound in BENCHMARK.json is judged against.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// mad returns the median absolute deviation from the median.
func mad(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := median(xs)
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - m)
	}
	return median(dev)
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{99.9, 99, 90, 75, 50}

// minBeyond is how many samples must lie strictly above a reported
// percentile: a tail read from fewer is one unlucky sample, not a tail.
const minBeyond = 10

// tail returns the highest percentile in tailLevels that has at least
// minBeyond samples strictly above it, with its value (nearest-rank). ok is
// false when even the median has fewer than minBeyond samples beyond it.
func tail(xs []float64) (pct, value float64, ok bool) {
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailLevels {
		if n == 0 {
			break
		}
		// Nearest rank: the smallest sample with at least p% of the data
		// at or below it.
		rank := int(math.Ceil(p / 100 * float64(n)))
		if rank < 1 {
			rank = 1
		}
		v := s[rank-1]
		beyond := n - rank
		// Ties with v are not "beyond" it.
		for beyond > 0 && s[n-beyond] == v {
			beyond--
		}
		if beyond >= minBeyond {
			return p, v, true
		}
	}
	return 0, math.NaN(), false
}
