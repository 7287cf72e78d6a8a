package eval

import (
	"sort"

	"repro/internal/index"
)

// PRPoint is one precision/recall operating point of a score-based matcher
// (er.PRPoint).
type PRPoint struct {
	Threshold             float64
	Precision, Recall, F1 float64
}

// PRCurve computes the precision-recall curve of a pair scoring: one point
// per distinct score value, thresholds descending (recall ascending). The
// curve generalizes BestThreshold — its F1-maximal point equals the
// exhaustive sweep's optimum — and is the standard way to compare matchers
// beyond a single operating point.
func PRCurve(pairs []index.Pair, scores []float64, truth map[uint64]bool, totalTrue int) []PRPoint {
	type scored struct {
		s     float64
		match bool
	}
	items := make([]scored, len(pairs))
	for k, p := range pairs {
		items[k] = scored{s: scores[k], match: truth[index.Key(p.I, p.J)]}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].s > items[j].s })

	var curve []PRPoint
	tp, fp := 0, 0
	for i := 0; i < len(items); {
		th := items[i].s
		for i < len(items) && items[i].s == th {
			if items[i].match {
				tp++
			} else {
				fp++
			}
			i++
		}
		r := compute(tp, fp, totalTrue-tp)
		curve = append(curve, PRPoint{Threshold: th, Precision: r.Precision, Recall: r.Recall, F1: r.F1})
	}
	return curve
}
