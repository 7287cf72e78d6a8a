package core

import (
	"math/rand"
	"testing"

	"repro/internal/index"
)

// randomCandidateGraph builds a random blocking graph over n records with
// the given edge density and random positive similarities.
func randomCandidateGraph(rng *rand.Rand, n int, density float64) (*index.Graph, []float64) {
	var pairs []index.Pair
	var s []float64
	for i := int32(0); i < int32(n); i++ {
		for j := i + 1; j < int32(n); j++ {
			if rng.Float64() >= density {
				continue
			}
			pairs = append(pairs, index.Pair{I: i, J: j})
			s = append(s, 0.05+rng.Float64())
		}
	}
	return pairGraph(n, pairs), s
}

// TestCliqueRankProbabilityInvariants checks, over many random graphs, that
// CliqueRank always emits probabilities in [0, 1], is deterministic, and
// assigns 0 to pairs whose edge was dropped.
func TestCliqueRankProbabilityInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 30; trial++ {
		n := 4 + rng.Intn(20)
		g, s := randomCandidateGraph(rng, n, 0.1+rng.Float64()*0.6)
		if len(g.Pairs) == 0 {
			continue
		}
		// Randomly zero some similarities: those pairs lose their edge.
		for k := range s {
			if rng.Intn(7) == 0 {
				s[k] = 0
			}
		}
		rg := BuildRecordGraph(g, s, n)
		opts := DefaultOptions()
		opts.Steps = 5 + rng.Intn(10)
		opts.Alpha = []float64{1, 5, 20}[rng.Intn(3)]
		p := CliqueRank(rg, opts)
		q := CliqueRank(rg, opts)
		if len(p) != len(g.Pairs) {
			t.Fatalf("trial %d: %d probabilities for %d pairs", trial, len(p), len(g.Pairs))
		}
		for k, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("trial %d: p[%d] = %g outside [0,1]", trial, k, v)
			}
			if v != q[k] {
				t.Fatalf("trial %d: nondeterministic CliqueRank", trial)
			}
			if s[k] == 0 && v != 0 {
				t.Fatalf("trial %d: dropped pair has p = %g", trial, v)
			}
		}
	}
}

// TestRSSProbabilityInvariants mirrors the CliqueRank invariants for the
// sampling estimator.
func TestRSSProbabilityInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(12)
		g, s := randomCandidateGraph(rng, n, 0.2+rng.Float64()*0.4)
		if len(g.Pairs) == 0 {
			continue
		}
		rg := BuildRecordGraph(g, s, n)
		opts := DefaultOptions()
		opts.RSSWalks = 10
		opts.Steps = 8
		p := RSS(rg, opts)
		for k, v := range p {
			if v < 0 || v > 1 {
				t.Fatalf("trial %d: RSS p[%d] = %g outside [0,1]", trial, k, v)
			}
			// With M walks the estimate is a multiple of 1/M.
			scaled := v * float64(opts.RSSWalks)
			if diff := scaled - float64(int(scaled+0.5)); diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("trial %d: RSS p[%d] = %g is not a multiple of 1/M", trial, k, v)
			}
		}
	}
}

// TestCliqueRankDisjointComponentsStayDisjoint verifies that records in
// different connected components can never be assigned a positive matching
// probability (there is no pair node between them at all), and that two
// well-formed cliques both resolve internally.
func TestCliqueRankDisjointComponentsStayDisjoint(t *testing.T) {
	var pairs []index.Pair
	addClique := func(members []int32) {
		for a := 0; a < len(members); a++ {
			for b := a + 1; b < len(members); b++ {
				pairs = append(pairs, index.Pair{I: members[a], J: members[b]})
			}
		}
	}
	addClique([]int32{0, 1, 2})
	addClique([]int32{3, 4, 5})
	g := pairGraph(6, pairs)
	s := make([]float64, len(pairs))
	for k := range s {
		s[k] = 1
	}
	rg := BuildRecordGraph(g, s, 6)
	p := CliqueRank(rg, DefaultOptions())
	for k := range g.Pairs {
		if p[k] < 0.99 {
			t.Errorf("in-clique pair %d has p = %g, want ~1", k, p[k])
		}
	}
}

// TestFusionScalesWithEta sweeps η and checks the monotone trade-off:
// raising the threshold can only shrink the matched set.
func TestFusionScalesWithEta(t *testing.T) {
	_, g := setup(fusionTexts...)
	counts := make([]int, 0, 3)
	for _, eta := range []float64{0.5, 0.9, 0.999} {
		opts := DefaultOptions()
		opts.Eta = eta
		res := mustFusion(t, g, len(fusionTexts), opts)
		n := 0
		for _, m := range res.Matches {
			if m {
				n++
			}
		}
		counts = append(counts, n)
	}
	if !(counts[0] >= counts[1] && counts[1] >= counts[2]) {
		t.Errorf("matched-set size must shrink with eta: %v", counts)
	}
}
