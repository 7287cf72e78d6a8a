package core

import (
	"math"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/matrix"
)

// pairID returns the pair-node ID of records (i, j), in either order, and
// whether they form a candidate pair.
func pairID(g *index.Graph, i, j int32) (int32, bool) {
	key := index.Key(i, j)
	for id, pr := range g.Pairs {
		if index.Key(pr.I, pr.J) == key {
			return int32(id), true
		}
	}
	return 0, false
}

// pairGraph builds a candidate graph over n records with no term nodes:
// the fixture shape for the record-graph stages, which read only the pairs.
// NewGraph numbers termless pairs by key.
func pairGraph(n int, pairs []index.Pair) *index.Graph {
	return index.NewGraph(n, 0, pairs, make([][]int32, len(pairs)))
}

// cliqueFixture builds a record graph with two internally well-connected
// cliques {0,1,2} and {3,4,5} joined by one weak bridge (2,3). Weights: 1.0
// inside cliques, bridge weight w.
func cliqueFixture(t *testing.T, bridge float64) (*index.Graph, *RecordGraph) {
	t.Helper()
	g := pairGraph(6, []index.Pair{
		{I: 0, J: 1}, {I: 0, J: 2}, {I: 1, J: 2},
		{I: 3, J: 4}, {I: 3, J: 5}, {I: 4, J: 5},
		{I: 2, J: 3},
	})
	s := make([]float64, g.NumPairs())
	for k, pr := range g.Pairs {
		s[k] = 1
		if pr == (index.Pair{I: 2, J: 3}) {
			s[k] = bridge
		}
	}
	return g, BuildRecordGraph(g, s, 6)
}

func TestBuildRecordGraphStructure(t *testing.T) {
	g, rg := cliqueFixture(t, 0.2)
	if rg.NumNodes() != 6 || rg.NumEdges() != 7 {
		t.Fatalf("graph %d nodes %d edges, want 6/7", rg.NumNodes(), rg.NumEdges())
	}
	for pid := range g.Pairs {
		slot := rg.PairSlot[pid]
		if slot < 0 {
			t.Fatalf("pair %d lost its edge", pid)
		}
	}
	// Symmetric weights.
	if rg.S.At(2, 3) != rg.S.At(3, 2) || rg.S.At(2, 3) != 0.2 {
		t.Errorf("bridge weight %g/%g, want 0.2 both ways", rg.S.At(2, 3), rg.S.At(3, 2))
	}
}

func TestBuildRecordGraphDropsZeroPairs(t *testing.T) {
	g := pairGraph(3, []index.Pair{{I: 0, J: 1}, {I: 1, J: 2}})
	rg := BuildRecordGraph(g, []float64{0.5, 0}, 3)
	if rg.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 (zero-similarity pair dropped)", rg.NumEdges())
	}
	if rg.PairSlot[1] != -1 {
		t.Error("dropped pair must have slot -1")
	}
}

func TestCliqueRankSeparatesCliques(t *testing.T) {
	g, rg := cliqueFixture(t, 0.2)
	opts := DefaultOptions()
	p := CliqueRank(rg, opts)
	within, _ := pairID(g, 0, 1)
	cross, _ := pairID(g, 2, 3)
	if p[within] < 0.9 {
		t.Errorf("within-clique probability %g, want >= 0.9", p[within])
	}
	if p[cross] > 0.1 {
		t.Errorf("cross-clique probability %g, want <= 0.1", p[cross])
	}
	for pid, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("p[%d] = %g outside [0,1]", pid, v)
		}
	}
}

func TestCliqueRankLowAlphaLeaksAcrossBridge(t *testing.T) {
	// Ablation 1: with α = 1 (linear transition), the weak bridge is taken
	// often enough that the cross probability rises substantially.
	g, rg := cliqueFixture(t, 0.5)
	sharp := DefaultOptions()
	soft := DefaultOptions()
	soft.Alpha = 1
	pSharp := CliqueRank(rg, sharp)
	pSoft := CliqueRank(rg, soft)
	cross, _ := pairID(g, 2, 3)
	if pSoft[cross] <= pSharp[cross] {
		t.Errorf("linear walk must leak more across the bridge: α=1 gives %g, α=20 gives %g",
			pSoft[cross], pSharp[cross])
	}
}

// completeClique builds the record graph of a complete clique on k records
// with pair weights weight(i, j).
func completeClique(k int, weight func(i, j int) float64) (*index.Graph, *RecordGraph) {
	var pairs []index.Pair
	var s []float64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			pairs = append(pairs, index.Pair{I: int32(i), J: int32(j)})
			s = append(s, weight(i, j))
		}
	}
	g := pairGraph(k, pairs)
	return g, BuildRecordGraph(g, s, k)
}

// fallbackClique is a complete clique large enough that its mask plan
// exceeds matrix.MaskPlanMaxEntries: every one of its k(k−1) slots has k−2
// live merge terms, and k(k−1)(k−2) > 2^26 from k = 408 on. The plan
// kernel therefore takes the transpose + MaskedMulInto fallback on it (the
// selector sends a complete clique to the dense chain, so tests name the
// plan kernel). The weights vary per pair, so M_t is not symmetric and a
// missing transpose shows.
func fallbackClique(t testing.TB) (*index.Graph, *RecordGraph) {
	const k = 410
	if k*(k-1)*(k-2) <= matrix.MaskPlanMaxEntries {
		t.Fatalf("a %d-clique no longer exceeds the mask-plan ceiling", k)
	}
	return completeClique(k, func(i, j int) float64 { return 0.5 + float64((7*i+13*j)%10)/20 })
}

// TestCliqueRankMatchesDenseReference validates the power-chain kernels
// against a direct dense implementation of the §VI-C recurrence
// Mᵏ = M_t × (Mᵏ⁻¹ ⊙ M_n) with M¹ = M_t (bonus disabled so both sides use
// the same first-step matrix). The small fixture runs through the mask
// plan and the dense chain, the large clique through the plan kernel's
// merge fallback; the DisableMask ablation is checked against the
// recurrence without ⊙ M_n.
func TestCliqueRankMatchesDenseReference(t *testing.T) {
	small, smallRG := cliqueFixture(t, 0.3)
	large, largeRG := fallbackClique(t)
	for _, tc := range []struct {
		name     string
		g        *index.Graph
		rg       *RecordGraph
		kernel   chainKernel
		steps    int
		unmasked bool
	}{
		{"plan", small, smallRG, chainPlan, 6, false},
		{"dense", small, smallRG, chainDense, 6, false},
		{"unmasked", small, smallRG, chainDense, 6, true},
		{"fallback", large, largeRG, chainPlan, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkCliqueRankDense(t, tc.g, tc.rg, tc.kernel, tc.steps, tc.unmasked)
		})
	}
}

// denseMul returns a × b for row-major n×n matrices by the textbook
// triple loop.
func denseMul(n int, a, b []float64) []float64 {
	out := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += a[i*n+k] * b[k*n+j]
			}
			out[i*n+j] = s
		}
	}
	return out
}

func checkCliqueRankDense(t *testing.T, g *index.Graph, rg *RecordGraph, kernel chainKernel, steps int, unmasked bool) {
	opts := DefaultOptions()
	opts.DisableBonus = true
	opts.DisableMask = unmasked
	opts.Steps = steps
	got := make([]float64, len(rg.PairSlot))
	cliqueRank(rg, opts, got, kernel)

	// Dense reference on row-major n×n matrices.
	n := rg.Pattern.N
	mt := make([]float64, n*n)
	for i := 0; i < n; i++ {
		nbrs, vals := rg.S.RowSlice(i)
		smax := 0.0
		for _, v := range vals {
			if v > smax {
				smax = v
			}
		}
		var sum float64
		w := make([]float64, len(nbrs))
		for k, v := range vals {
			w[k] = math.Pow(v/smax, opts.Alpha)
			sum += w[k]
		}
		for k, j := range nbrs {
			mt[i*n+int(j)] = w[k] / sum
		}
	}
	mk := slices.Clone(mt)
	acc := slices.Clone(mt)
	masked := make([]float64, n*n)
	for step := 2; step <= opts.Steps; step++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				masked[i*n+j] = 0
				if unmasked || rg.Pattern.Has(i, j) {
					masked[i*n+j] = mk[i*n+j]
				}
			}
		}
		mk = denseMul(n, mt, masked)
		for k, v := range mk {
			acc[k] += v
		}
	}
	clamp := func(v float64) float64 {
		if v > 1 {
			return 1
		}
		return v
	}
	for pid, pair := range g.Pairs {
		i, j := int(pair.I), int(pair.J)
		want := (clamp(acc[i*n+j]) + clamp(acc[j*n+i])) / 2
		if math.Abs(got[pid]-want) > 1e-9 {
			t.Fatalf("pair %d: CliqueRank %g, dense reference %g", pid, got[pid], want)
		}
	}
}

func TestCliqueRankBonusHelpsBigClique(t *testing.T) {
	// Ablation 2: in a large clique the per-edge transition probability is
	// ~1/(k-1), so without the target bonus the S-step reaching probability
	// of a member pair is visibly lower.
	g, rg := completeClique(40, func(int, int) float64 { return 1 })

	with := DefaultOptions()
	without := DefaultOptions()
	without.DisableBonus = true
	pWith := CliqueRank(rg, with)
	pWithout := CliqueRank(rg, without)
	var meanWith, meanWithout float64
	for pid := range g.Pairs {
		meanWith += pWith[pid]
		meanWithout += pWithout[pid]
	}
	meanWith /= float64(len(g.Pairs))
	meanWithout /= float64(len(g.Pairs))
	if meanWith <= meanWithout {
		t.Errorf("bonus must raise in-clique probability: with %g, without %g", meanWith, meanWithout)
	}
}

func TestCliqueRankDeterministic(t *testing.T) {
	_, rg := cliqueFixture(t, 0.2)
	a := CliqueRank(rg, DefaultOptions())
	b := CliqueRank(rg, DefaultOptions())
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same options must give identical probabilities")
		}
	}
}

func TestCliqueRankUnmaskedAblation(t *testing.T) {
	g, rg := cliqueFixture(t, 0.4)
	opts := DefaultOptions()
	opts.DisableMask = true
	p := CliqueRank(rg, opts)
	for pid, v := range p {
		if v < 0 || v > 1 {
			t.Fatalf("unmasked p[%d] = %g outside [0,1]", pid, v)
		}
	}
	// Without the mask the walk may wander outside the clique and return,
	// so the cross-clique probability cannot be lower than the masked one.
	masked := CliqueRank(rg, DefaultOptions())
	cross, _ := pairID(g, 2, 3)
	if p[cross] < masked[cross]-1e-9 {
		t.Errorf("unmasked cross probability %g below masked %g", p[cross], masked[cross])
	}
}
