package baselines

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/textproc"
)

func setup(texts ...string) (*textproc.Corpus, *index.Graph) {
	c := textproc.BuildCorpus(texts, textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()})
	g, err := index.BuildGraph(c, nil, index.BatchOptions{})
	if err != nil {
		panic(err)
	}
	return c, g
}

func TestPageRankUniformOnRegularGraph(t *testing.T) {
	// On a cycle (2-regular), PageRank must converge to uniform salience 1.
	c, _ := setup("aa bb", "bb cc", "cc dd", "dd aa")
	tg := graph.NewTermGraph(c, 2)
	s := PageRank(tg, DefaultPageRankOptions())
	for i, v := range s {
		if math.Abs(v-1) > 1e-6 {
			t.Errorf("salience[%d] = %g, want 1 on regular graph", i, v)
		}
	}
}

func TestPageRankHubGetsMoreSalience(t *testing.T) {
	// Star: hub co-occurs with all others.
	c, _ := setup("hub aa", "hub bb", "hub cc", "hub dd")
	tg := graph.NewTermGraph(c, 2)
	s := PageRank(tg, DefaultPageRankOptions())
	hub := c.Index["hub"]
	for term, id := range c.Index {
		if term == "hub" {
			continue
		}
		if s[hub] <= s[id] {
			t.Errorf("salience(hub)=%g not above salience(%s)=%g", s[hub], term, s[id])
		}
	}
}

func TestPageRankIsolatedTermBaseSalience(t *testing.T) {
	c, _ := setup("solo", "aa bb")
	tg := graph.NewTermGraph(c, 2)
	opts := DefaultPageRankOptions()
	s := PageRank(tg, opts)
	solo := c.Index["solo"]
	if math.Abs(s[solo]-(1-opts.Damping)) > 1e-9 {
		t.Errorf("isolated salience = %g, want %g", s[solo], 1-opts.Damping)
	}
}

func TestTWIDFSharedRareBeatsSharedCommon(t *testing.T) {
	// "rare" is shared by exactly one pair; "common" by many.
	c, g := setup(
		"common rare xx1",
		"common rare yy1",
		"common zz1 qq1",
		"common ww1 pp1",
		"common vv1 uu1",
	)
	scores, salience := PageRankTWIDF(c, g, DefaultPageRankOptions())
	if len(salience) != c.NumTerms() {
		t.Fatalf("salience length %d, want %d", len(salience), c.NumTerms())
	}
	rarePair, _ := g.PairID(0, 1)   // shares common+rare
	commonPair, _ := g.PairID(2, 3) // shares only common
	if scores[rarePair] <= scores[commonPair] {
		t.Errorf("pair sharing rare term must outscore pair sharing only common term: %g vs %g",
			scores[rarePair], scores[commonPair])
	}
}

func TestSimRankIdenticalRecordsScoreHighest(t *testing.T) {
	c, g := setup(
		"aa bb cc",
		"aa bb cc",
		"aa dd ee",
		"ff gg hh",
	)
	scores := SimRank(c, g, DefaultSimRankOptions())
	same, _ := g.PairID(0, 1)
	diff, _ := g.PairID(0, 2)
	if scores[same] <= scores[diff] {
		t.Errorf("identical records %g must outscore partial overlap %g", scores[same], scores[diff])
	}
	for id, s := range scores {
		if s < 0 || s > 1+1e-9 {
			t.Errorf("SimRank score %d out of [0,1]: %g", id, s)
		}
	}
}

func TestSimRankFirstIterationMatchesHandComputation(t *testing.T) {
	// Two records sharing their single term; one iteration.
	// Eq.2 first: termSim starts from recSim=0 → all 0.
	// Eq.1 then: s(r0,r1) = C1/(1·1) · termLookup(aa,aa) = C1.
	c, g := setup("aa", "aa")
	scores := SimRank(c, g, SimRankOptions{C1: 0.8, C2: 0.8, Iters: 1})
	id, _ := g.PairID(0, 1)
	if math.Abs(scores[id]-0.8) > 1e-12 {
		t.Errorf("one-iteration SimRank = %g, want 0.8", scores[id])
	}
}

func TestSimRankMorePassesPropagate(t *testing.T) {
	// Records 0,1 share aa; records 2,3 share bb; records 1,2 share cc.
	// After several iterations, (0,2) style second-order effects flow
	// through term similarities; here we only check stability and range.
	c, g := setup("aa cc", "aa", "bb cc", "bb")
	s1 := SimRank(c, g, SimRankOptions{C1: 0.8, C2: 0.8, Iters: 1})
	s5 := SimRank(c, g, SimRankOptions{C1: 0.8, C2: 0.8, Iters: 5})
	if len(s1) != len(s5) {
		t.Fatal("score lengths differ")
	}
	grew := false
	for i := range s5 {
		if s5[i] > s1[i]+1e-12 {
			grew = true
		}
		if s5[i] < s1[i]-1e-9 {
			t.Errorf("pair %d similarity decreased from %g to %g", i, s1[i], s5[i])
		}
	}
	if !grew {
		t.Error("no pair gained similarity from extra iterations")
	}
}

func TestSimRankPruning(t *testing.T) {
	c, g := setup("aa bb", "aa bb", "aa cc", "aa dd")
	// With a tiny MaxProduct, every term pair is pruned; only diagonal
	// term similarity contributes.
	pruned := SimRank(c, g, SimRankOptions{C1: 0.8, C2: 0.8, Iters: 3, MaxProduct: 1})
	full := SimRank(c, g, SimRankOptions{C1: 0.8, C2: 0.8, Iters: 3})
	id, _ := g.PairID(0, 1)
	if pruned[id] > full[id]+1e-12 {
		t.Error("pruning must only lower similarities")
	}
	if pruned[id] == 0 {
		t.Error("shared-term diagonal must survive pruning")
	}
}

// mustHybrid fails the test on the misalignment error.
func mustHybrid(t *testing.T, sb, su []float64, beta float64) []float64 {
	t.Helper()
	h, err := Hybrid(sb, su, beta)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHybridCombination(t *testing.T) {
	sb := []float64{1, 0, 0.5}
	su := []float64{0, 2, 1}
	h := mustHybrid(t, sb, su, 0.5)
	// normalized: sb=[1,0,.5], su=[0,1,.5] → h=[.5,.5,.5]
	for i, v := range h {
		if math.Abs(v-0.5) > 1e-12 {
			t.Errorf("h[%d] = %g, want 0.5", i, v)
		}
	}
	h0 := mustHybrid(t, sb, su, 0)
	if h0[1] != 1 || h0[0] != 0 {
		t.Errorf("beta=0 must return normalized TW-IDF, got %v", h0)
	}
	h1 := mustHybrid(t, sb, su, 1)
	if h1[0] != 1 || h1[1] != 0 {
		t.Errorf("beta=1 must return normalized SimRank, got %v", h1)
	}
}

func TestHybridZeroVectors(t *testing.T) {
	h := mustHybrid(t, []float64{0, 0}, []float64{0, 0}, 0.5)
	for _, v := range h {
		if v != 0 {
			t.Error("all-zero inputs must stay zero")
		}
	}
}

func TestHybridMisalignedError(t *testing.T) {
	if _, err := Hybrid([]float64{1, 2}, []float64{1}, 0.5); err == nil {
		t.Fatal("misaligned inputs must return an error")
	}
}

func TestBiRankConverges(t *testing.T) {
	c, _ := setup(
		"common rare1 aa",
		"common rare1 bb",
		"common cc dd",
		"ee ff gg",
	)
	termRank, recordRank := BiRank(c, DefaultBiRankOptions())
	if len(termRank) != c.NumTerms() || len(recordRank) != c.NumRecords() {
		t.Fatal("rank vector lengths wrong")
	}
	for i, v := range termRank {
		if v <= 0 || math.IsNaN(v) {
			t.Errorf("termRank[%d] = %g, want positive", i, v)
		}
	}
	for i, v := range recordRank {
		if v <= 0 || math.IsNaN(v) {
			t.Errorf("recordRank[%d] = %g, want positive", i, v)
		}
	}
	// The hub term occurring in 3 records must outrank a df-1 term.
	if termRank[c.Index["common"]] <= termRank[c.Index["ee"]] {
		t.Error("frequent term must receive more BiRank mass")
	}
}

func TestBiRankDeterministic(t *testing.T) {
	c, _ := setup("aa bb", "bb cc", "cc dd")
	a, _ := BiRank(c, DefaultBiRankOptions())
	b, _ := BiRank(c, DefaultBiRankOptions())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("BiRank must be deterministic")
		}
	}
}

func TestBiRankTWIDFScoresAligned(t *testing.T) {
	c, g := setup(
		"common rare xx1",
		"common rare yy1",
		"common zz1 qq1",
	)
	scores, salience := BiRankTWIDF(c, g, DefaultBiRankOptions())
	if len(scores) != g.NumPairs() || len(salience) != c.NumTerms() {
		t.Fatal("alignment wrong")
	}
	rarePair, _ := g.PairID(0, 1)
	commonPair, _ := g.PairID(0, 2)
	if scores[rarePair] <= scores[commonPair] {
		t.Errorf("rare-term pair %g must outscore common-term pair %g",
			scores[rarePair], scores[commonPair])
	}
}

func TestBiRankDampingZeroReturnsQueryVector(t *testing.T) {
	c, _ := setup("aa bb", "cc dd")
	opts := DefaultBiRankOptions()
	opts.Alpha = 0
	termRank, _ := BiRank(c, opts)
	want := 1.0 / float64(c.NumTerms())
	for i, v := range termRank {
		if math.Abs(v-want) > 1e-12 {
			t.Errorf("alpha=0 termRank[%d] = %g, want uniform %g", i, v, want)
		}
	}
}
