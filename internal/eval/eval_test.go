package eval

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/textproc"
)

func pairs(ijs ...[2]int32) []index.Pair {
	out := make([]index.Pair, len(ijs))
	for k, ij := range ijs {
		out[k] = index.Pair{I: ij[0], J: ij[1]}
	}
	return out
}

func truthOf(ps []index.Pair, idx ...int) map[uint64]bool {
	m := make(map[uint64]bool)
	for _, k := range idx {
		m[index.Key(ps[k].I, ps[k].J)] = true
	}
	return m
}

func TestEvaluatePairsKnown(t *testing.T) {
	ps := pairs([2]int32{0, 1}, [2]int32{0, 2}, [2]int32{1, 2}, [2]int32{3, 4})
	truth := truthOf(ps, 0, 3) // 2 true matches, both candidates
	r := EvaluatePairs(ps, []bool{true, true, false, false}, truth, 2)
	if r.TP != 1 || r.FP != 1 || r.FN != 1 {
		t.Fatalf("TP/FP/FN = %d/%d/%d, want 1/1/1", r.TP, r.FP, r.FN)
	}
	if math.Abs(r.Precision-0.5) > 1e-12 || math.Abs(r.Recall-0.5) > 1e-12 {
		t.Errorf("P/R = %g/%g, want 0.5/0.5", r.Precision, r.Recall)
	}
	if math.Abs(r.F1-0.5) > 1e-12 {
		t.Errorf("F1 = %g, want 0.5", r.F1)
	}
}

func TestEvaluatePairsCountsMissedCandidates(t *testing.T) {
	// 3 true matches overall, only 1 in the candidate set: recall is capped
	// by blocking.
	ps := pairs([2]int32{0, 1})
	truth := map[uint64]bool{
		index.Key(0, 1): true,
		index.Key(2, 3): true,
		index.Key(4, 5): true,
	}
	r := EvaluatePairs(ps, []bool{true}, truth, 3)
	if r.Recall > 0.34 {
		t.Errorf("recall = %g, want 1/3", r.Recall)
	}
	if r.Precision != 1 {
		t.Errorf("precision = %g, want 1", r.Precision)
	}
}

func TestEvaluatePairsEmptyPrediction(t *testing.T) {
	ps := pairs([2]int32{0, 1})
	r := EvaluatePairs(ps, []bool{false}, truthOf(ps, 0), 1)
	if r.F1 != 0 || r.Precision != 0 || r.Recall != 0 {
		t.Errorf("empty prediction must score 0, got %+v", r)
	}
}

func TestBestThresholdFindsSeparator(t *testing.T) {
	ps := pairs([2]int32{0, 1}, [2]int32{2, 3}, [2]int32{4, 5}, [2]int32{6, 7})
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	truth := truthOf(ps, 0, 1)
	th, r := BestThreshold(ps, scores, truth, 2, 1000)
	if r.F1 != 1 {
		t.Fatalf("best F1 = %g, want 1 (perfectly separable)", r.F1)
	}
	if th <= 0.2 || th > 0.8 {
		t.Errorf("threshold = %g, want in (0.2, 0.8]", th)
	}
}

func TestBestThresholdMatchesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(60)
		ps := make([]index.Pair, n)
		scores := make([]float64, n)
		truth := make(map[uint64]bool)
		total := 0
		for k := range ps {
			ps[k] = index.Pair{I: int32(2 * k), J: int32(2*k + 1)}
			scores[k] = rng.Float64()
			if rng.Intn(2) == 0 {
				truth[index.Key(ps[k].I, ps[k].J)] = true
				total++
			}
		}
		if total == 0 {
			continue
		}
		_, got := BestThreshold(ps, scores, truth, total, 1000)
		// Exhaustive sweep over every observed score as threshold.
		best := 0.0
		for _, th := range scores {
			if r := Threshold(ps, scores, th, truth, total); r.F1 > best {
				best = r.F1
			}
		}
		// The quantized sweep may differ slightly from the exhaustive one,
		// but with 1000 steps it must come very close and never exceed it
		// by construction of the exhaustive set... it can exceed when a
		// quantized threshold separates two scores better than any exact
		// score does — so only assert closeness from below.
		if got.F1 < best-0.02 {
			t.Fatalf("trial %d: quantized best F1 %g far below exhaustive %g", trial, got.F1, best)
		}
	}
}

func TestBestThresholdAllZeroScores(t *testing.T) {
	ps := pairs([2]int32{0, 1})
	_, r := BestThreshold(ps, []float64{0}, truthOf(ps, 0), 1, 1000)
	if r.F1 != 0 {
		t.Errorf("all-zero scores must give F1 0, got %g", r.F1)
	}
}

// mustSpearman fails the test on the (caller-bug) length-mismatch error.
func mustSpearman(t *testing.T, a, b []float64) float64 {
	t.Helper()
	rho, err := Spearman(a, b)
	if err != nil {
		t.Fatalf("Spearman: %v", err)
	}
	return rho
}

func TestSpearmanKnown(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5}
	if got := mustSpearman(t, a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman(a,a) = %g, want 1", got)
	}
	b := []float64{5, 4, 3, 2, 1}
	if got := mustSpearman(t, a, b); math.Abs(got+1) > 1e-12 {
		t.Errorf("Spearman(a,reversed) = %g, want -1", got)
	}
	// Monotone transform preserves perfect correlation.
	c := []float64{1, 4, 9, 16, 25}
	if got := mustSpearman(t, a, c); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman(a, a^2) = %g, want 1", got)
	}
}

func TestSpearmanTies(t *testing.T) {
	a := []float64{1, 2, 2, 3}
	b := []float64{1, 2, 2, 3}
	if got := mustSpearman(t, a, b); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spearman with aligned ties = %g, want 1", got)
	}
	flat := []float64{7, 7, 7, 7}
	if got := mustSpearman(t, a, flat); got != 0 {
		t.Errorf("Spearman against constant = %g, want 0", got)
	}
}

func TestSpearmanLengthMismatch(t *testing.T) {
	if _, err := Spearman([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("Spearman accepted samples of different lengths")
	}
}

func TestSpearmanRandomInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(40)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		got := mustSpearman(t, a, b)
		if got < -1-1e-9 || got > 1+1e-9 {
			t.Fatalf("Spearman out of [-1,1]: %g", got)
		}
		if math.Abs(got-mustSpearman(t, b, a)) > 1e-9 {
			t.Fatal("Spearman must be symmetric")
		}
	}
}

func TestTermScores(t *testing.T) {
	c := textproc.BuildCorpus(
		[]string{"aa bb", "aa bb", "aa cc", "dd"},
		textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
	)
	g, err := index.BuildGraph(c, nil, index.BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// ground truth: records 0 and 1 match.
	truth := map[uint64]bool{index.Key(0, 1): true}
	scores := TermScores(g, truth)
	bb := termID(c, "bb")
	// bb connects only (0,1), a match: score 1.
	if scores[bb] != 1 {
		t.Errorf("score(bb) = %g, want 1", scores[bb])
	}
	aa := termID(c, "aa")
	// aa connects (0,1) match, (0,2) and (1,2) non-match: 1/3.
	if math.Abs(scores[aa]-1.0/3) > 1e-12 {
		t.Errorf("score(aa) = %g, want 1/3", scores[aa])
	}
	dd := termID(c, "dd")
	if scores[dd] != -1 {
		t.Errorf("score(dd) = %g, want -1 (no pairs)", scores[dd])
	}
}

func TestRankSeries(t *testing.T) {
	weights := []float64{0.9, 0.1, 0.5, 0.7}
	scores := []float64{1, 0, -1, 0.5}
	// term 2 skipped; order by weight desc: t0(1), t3(0.5), t1(0)
	got := RankSeries(weights, scores)
	want := []float64{1, 0.5, 0}
	if len(got) != 3 {
		t.Fatalf("len = %d, want 3", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("series[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestReferenceTablesWellFormed(t *testing.T) {
	if len(TableII) != 15 {
		t.Errorf("TableII rows = %d, want 15 (14 competitors + proposed)", len(TableII))
	}
	implemented := 0
	for _, r := range TableII {
		if r.Implemented {
			implemented++
		}
		if r.Method == "" || r.Group == "" {
			t.Errorf("row %+v missing labels", r)
		}
	}
	if implemented != 6 {
		t.Errorf("implemented rows = %d, want 6", implemented)
	}
	if TableIV["ITER"][0] != 0.96 {
		t.Error("TableIV ITER Restaurant must be 0.96")
	}
	if TableV[4][2] != 0.890 {
		t.Error("TableV iteration 5 Paper must be 0.890")
	}
}

func TestBCubedPerfectClustering(t *testing.T) {
	gold := []int{0, 0, 1, 1, 2}
	predicted := [][]int{{0, 1}, {2, 3}, {4}}
	r := BCubed(predicted, gold)
	if r.Precision != 1 || r.Recall != 1 || r.F1 != 1 {
		t.Errorf("perfect clustering scored %+v", r)
	}
}

func TestBCubedAllSingletons(t *testing.T) {
	gold := []int{0, 0, 0, 0}
	r := BCubed(nil, gold) // no predicted clusters: all singletons
	if r.Precision != 1 {
		t.Errorf("singleton precision = %g, want 1", r.Precision)
	}
	if math.Abs(r.Recall-0.25) > 1e-12 {
		t.Errorf("singleton recall = %g, want 0.25", r.Recall)
	}
}

func TestBCubedAllMerged(t *testing.T) {
	gold := []int{0, 0, 1, 1}
	predicted := [][]int{{0, 1, 2, 3}}
	r := BCubed(predicted, gold)
	if r.Recall != 1 {
		t.Errorf("merged recall = %g, want 1", r.Recall)
	}
	if math.Abs(r.Precision-0.5) > 1e-12 {
		t.Errorf("merged precision = %g, want 0.5", r.Precision)
	}
}

func TestBCubedHandComputed(t *testing.T) {
	// gold: {0,1,2} entity A, {3,4} entity B.
	// predicted: {0,1}, {2,3}, {4}.
	gold := []int{0, 0, 0, 1, 1}
	predicted := [][]int{{0, 1}, {2, 3}, {4}}
	r := BCubed(predicted, gold)
	// precision: r0: 2/2, r1: 2/2, r2: 1/2, r3: 1/2, r4: 1/1 → 4/5 = 0.8
	if math.Abs(r.Precision-0.8) > 1e-12 {
		t.Errorf("precision = %g, want 0.8", r.Precision)
	}
	// recall: r0: 2/3, r1: 2/3, r2: 1/3, r3: 1/2, r4: 1/2 → (2/3+2/3+1/3+1/2+1/2)/5 = 8/15
	if math.Abs(r.Recall-8.0/15) > 1e-12 {
		t.Errorf("recall = %g, want 8/15", r.Recall)
	}
}

func TestBCubedIgnoresUnlabeled(t *testing.T) {
	gold := []int{0, 0, -1}
	predicted := [][]int{{0, 1, 2}}
	r := BCubed(predicted, gold)
	// record 2 ignored: precision per record = 2/2 (intersection within
	// labeled subset over labeled cluster size).
	if r.Precision != 1 || r.Recall != 1 {
		t.Errorf("unlabeled records must be excluded, got %+v", r)
	}
}

func TestBCubedEmptyGold(t *testing.T) {
	r := BCubed([][]int{{0}}, []int{-1})
	if r.Precision != 0 || r.Recall != 0 || r.F1 != 0 {
		t.Errorf("no labeled records must score zero, got %+v", r)
	}
}

func TestPRCurveMonotoneRecall(t *testing.T) {
	ps := pairs([2]int32{0, 1}, [2]int32{2, 3}, [2]int32{4, 5}, [2]int32{6, 7})
	scores := []float64{0.9, 0.7, 0.7, 0.1}
	truth := truthOf(ps, 0, 1)
	curve := PRCurve(ps, scores, truth, 2)
	// Distinct scores: 0.9, 0.7, 0.1 → 3 points.
	if len(curve) != 3 {
		t.Fatalf("curve has %d points, want 3", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i].Recall < curve[i-1].Recall {
			t.Error("recall must be non-decreasing along the curve")
		}
		if curve[i].Threshold >= curve[i-1].Threshold {
			t.Error("thresholds must descend")
		}
	}
	if last := curve[len(curve)-1]; last.Recall != 1 {
		t.Errorf("final recall = %g, want 1 (all true pairs are candidates)", last.Recall)
	}
}

func TestPRCurveBestF1MatchesExhaustiveSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(50)
		ps := make([]index.Pair, n)
		scores := make([]float64, n)
		truth := make(map[uint64]bool)
		total := 0
		for k := range ps {
			ps[k] = index.Pair{I: int32(2 * k), J: int32(2*k + 1)}
			scores[k] = rng.Float64()
			if rng.Intn(2) == 0 {
				truth[index.Key(ps[k].I, ps[k].J)] = true
				total++
			}
		}
		if total == 0 {
			continue
		}
		best := 0.0
		for _, pt := range PRCurve(ps, scores, truth, total) {
			best = math.Max(best, pt.F1)
		}
		exhaustive := 0.0
		for _, th := range scores {
			if r := Threshold(ps, scores, th, truth, total); r.F1 > exhaustive {
				exhaustive = r.F1
			}
		}
		if math.Abs(best-exhaustive) > 1e-12 {
			t.Fatalf("trial %d: curve best F1 %g != exhaustive %g", trial, best, exhaustive)
		}
	}
}

// termID returns a kept term's ID by binary search over the corpus's
// ascending Terms, or -1 when the corpus does not keep it.
func termID(c *textproc.Corpus, term string) int {
	if id, ok := slices.BinarySearch(c.Terms, term); ok {
		return id
	}
	return -1
}
