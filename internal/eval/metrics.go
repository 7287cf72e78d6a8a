// Package eval implements the paper's evaluation protocol (§VII): pairwise
// precision/recall/F1, the automatic 1000-value threshold sweep used for all
// score-based competitors, Spearman's rank correlation for Table IV, the
// score(t) discriminativeness oracle of §VII-E, and the literature constants
// for the machine-learning and crowd-based rows of Table II.
package eval

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/index"
)

// PRF is a pairwise precision/recall/F1 result, with the true-positive,
// false-positive and false-negative counts behind it. The root package
// exports it as er.Metrics.
type PRF struct {
	Precision, Recall, F1 float64
	TP, FP, FN            int
}

// compute fills the derived fields from the counts.
func compute(tp, fp, fn int) PRF {
	r := PRF{TP: tp, FP: fp, FN: fn}
	if tp+fp > 0 {
		r.Precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		r.Recall = float64(tp) / float64(tp+fn)
	}
	if r.Precision+r.Recall > 0 {
		r.F1 = 2 * r.Precision * r.Recall / (r.Precision + r.Recall)
	}
	return r
}

// EvaluatePairs scores a predicted match set against ground truth.
// predicted[k] marks candidate pair k as a match; totalTrue is the number of
// ground-truth matching pairs in the dataset (true matches outside the
// candidate set count as false negatives, so blocking recall is part of the
// measured recall, as in the paper).
func EvaluatePairs(pairs []index.Pair, predicted []bool, truth map[uint64]bool, totalTrue int) PRF {
	tp, fp := 0, 0
	for k, p := range pairs {
		if !predicted[k] {
			continue
		}
		if truth[index.Key(p.I, p.J)] {
			tp++
		} else {
			fp++
		}
	}
	return FromCounts(tp, fp, totalTrue)
}

// FromCounts scores tp true and fp false predicted matches against
// totalTrue ground-truth matching pairs — EvaluatePairs for a caller that
// counts the true positives itself.
func FromCounts(tp, fp, totalTrue int) PRF {
	return compute(tp, fp, totalTrue-tp)
}

// Threshold classifies candidate pairs by score >= th and evaluates.
func Threshold(pairs []index.Pair, scores []float64, th float64, truth map[uint64]bool, totalTrue int) PRF {
	predicted := make([]bool, len(pairs))
	for k, s := range scores {
		predicted[k] = s >= th
	}
	return EvaluatePairs(pairs, predicted, truth, totalTrue)
}

// BestThreshold reproduces the paper's parameter-setting protocol for
// score-based methods (§VII-C): quantize [0, max(score)] into `steps`
// discrete thresholds and return the one with the highest F1 — "an upper
// bound of manually tuned parameters". The sweep runs in O(n log n) by
// sorting pairs once and walking thresholds from high to low.
func BestThreshold(pairs []index.Pair, scores []float64, truth map[uint64]bool, totalTrue, steps int) (float64, PRF) {
	if steps <= 0 {
		steps = 1000
	}
	type scored struct {
		s     float64
		match bool
	}
	items := make([]scored, len(pairs))
	maxScore := 0.0
	for k, p := range pairs {
		items[k] = scored{s: scores[k], match: truth[index.Key(p.I, p.J)]}
		if scores[k] > maxScore {
			maxScore = scores[k]
		}
	}
	if maxScore == 0 {
		return 0, compute(0, 0, totalTrue)
	}
	sort.Slice(items, func(i, j int) bool { return items[i].s > items[j].s })

	bestTh, best := maxScore, PRF{FN: totalTrue}
	tp, fp := 0, 0
	idx := 0
	for step := steps; step >= 1; step-- {
		th := maxScore * float64(step) / float64(steps)
		for idx < len(items) && items[idx].s >= th {
			if items[idx].match {
				tp++
			} else {
				fp++
			}
			idx++
		}
		if r := compute(tp, fp, totalTrue-tp); r.F1 > best.F1 {
			best = r
			bestTh = th
		}
	}
	return bestTh, best
}

// Spearman returns Spearman's rank correlation coefficient between two
// paired samples, using average ranks for ties (the tie-aware definition,
// computed as Pearson correlation of the rank vectors). Samples of
// different lengths are a caller error, reported rather than panicking so
// the statistic stays safe on externally supplied vectors; fewer than two
// observations yield 0.
func Spearman(a, b []float64) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("eval: Spearman requires equal-length samples, got %d and %d", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, nil
	}
	ra, rb := ranks(a), ranks(b)
	return pearson(ra, rb), nil
}

func ranks(x []float64) []float64 {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return x[idx[i]] < x[idx[j]] })
	r := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			r[idx[k]] = avg
		}
		i = j + 1
	}
	return r
}

func pearson(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
	}
	ma, mb := sa/n, sb/n
	var cov, va, vb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		cov += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return cov / math.Sqrt(va*vb)
}

// TermScores computes the paper's score(t) oracle (§VII-E): the fraction of
// pair nodes connected to term t that are ground-truth matches. Terms with
// no connected pair (P_t = 0) get -1 and should be excluded from rank
// comparisons.
func TermScores(g *index.Graph, truth map[uint64]bool) []float64 {
	out := make([]float64, g.NumTerms)
	for t := range out {
		pairIDs := g.TermPairs[t]
		if len(pairIDs) == 0 {
			out[t] = -1
			continue
		}
		match := 0
		for _, pid := range pairIDs {
			p := g.Pairs[pid]
			if truth[index.Key(p.I, p.J)] {
				match++
			}
		}
		out[t] = float64(match) / float64(len(pairIDs))
	}
	return out
}

// RankSeries produces the Figure 4 series: terms are sorted by descending
// learned weight and the y-value at position x is score(t) of the x-th
// ranked term. Terms with score(t) = -1 (no pairs) are skipped.
func RankSeries(weights, termScores []float64) []float64 {
	type tw struct {
		w, s float64
	}
	items := make([]tw, 0, len(weights))
	for t, w := range weights {
		if termScores[t] < 0 {
			continue
		}
		items = append(items, tw{w: w, s: termScores[t]})
	}
	sort.SliceStable(items, func(i, j int) bool { return items[i].w > items[j].w })
	out := make([]float64, len(items))
	for i, it := range items {
		out[i] = it.s
	}
	return out
}

// TermWeightQuality computes the Table IV diagnostic: Spearman's rank
// correlation between a term-weight vector and the score(t) oracle over
// terms connected to at least one candidate pair. It returns false
// without ground truth (truth == nil).
func TermWeightQuality(g *index.Graph, truth map[uint64]bool, weights []float64) (float64, bool) {
	if truth == nil {
		return 0, false
	}
	var w, o []float64
	for t, s := range TermScores(g, truth) {
		if s < 0 {
			continue
		}
		w = append(w, weights[t])
		o = append(o, s)
	}
	rho, err := Spearman(w, o)
	if err != nil {
		// Unreachable: w and o are appended pairwise above, so the only
		// Spearman error (length mismatch) cannot occur. Reported as
		// "no oracle" rather than crashing.
		return 0, false
	}
	return rho, true
}

// BlockingRecall returns the fraction of ground-truth matching pairs that
// survived candidate generation into g — the recall ceiling of every
// downstream method. It returns false without ground truth (truth == nil)
// and 1 when the ground truth holds no matching pair.
func BlockingRecall(g *index.Graph, truth map[uint64]bool) (float64, bool) {
	if truth == nil {
		return 0, false
	}
	if len(truth) == 0 {
		return 1, true
	}
	hit := 0
	for _, pr := range g.Pairs {
		if truth[index.Key(pr.I, pr.J)] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth)), true
}
