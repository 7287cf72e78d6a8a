package core

import (
	"math"
	"testing"

	"repro/internal/index"
	"repro/internal/matrix"
)

// cliqueFixture builds a record graph with two internally well-connected
// cliques {0,1,2} and {3,4,5} joined by one weak bridge (2,3). Weights: 1.0
// inside cliques, bridge weight w.
func cliqueFixture(t *testing.T, bridge float64) (*index.Graph, *RecordGraph) {
	t.Helper()
	pairs := [][2]int32{
		{0, 1}, {0, 2}, {1, 2},
		{3, 4}, {3, 5}, {4, 5},
		{2, 3},
	}
	g := &index.Graph{
		NumRecords: 6,
		Index:      map[uint64]int32{},
	}
	s := make([]float64, len(pairs))
	for k, ij := range pairs {
		g.Pairs = append(g.Pairs, index.Pair{I: ij[0], J: ij[1]})
		g.Index[index.Key(ij[0], ij[1])] = int32(k)
		s[k] = 1
	}
	s[len(s)-1] = bridge
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
	g := &index.Graph{
		NumRecords: 3,
		Pairs:      []index.Pair{{I: 0, J: 1}, {I: 1, J: 2}},
		Index: map[uint64]int32{
			index.Key(0, 1): 0,
			index.Key(1, 2): 1,
		},
	}
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
	within, _ := g.PairID(0, 1)
	cross, _ := g.PairID(2, 3)
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
	cross, _ := g.PairID(2, 3)
	if pSoft[cross] <= pSharp[cross] {
		t.Errorf("linear walk must leak more across the bridge: α=1 gives %g, α=20 gives %g",
			pSoft[cross], pSharp[cross])
	}
}

// TestCliqueRankMatchesDenseReference validates the masked-pattern chain
// against a direct dense implementation of the §VI-C recurrence
// Mᵏ = M_t × (Mᵏ⁻¹ ⊙ M_n) with M¹ = M_t (bonus disabled so both sides use
// the same first-step matrix).
func TestCliqueRankMatchesDenseReference(t *testing.T) {
	g, rg := cliqueFixture(t, 0.3)
	opts := DefaultOptions()
	opts.DisableBonus = true
	opts.Steps = 6
	got := CliqueRank(rg, opts)

	// Dense reference.
	n := rg.Pattern.N
	mt := matrix.NewDense(n, n)
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
			mt.Set(i, int(j), w[k]/sum)
		}
	}
	mask := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for _, j := range rg.Pattern.Neighbors(i) {
			mask.Set(i, int(j), 1)
		}
	}
	mk := mt.Clone()
	acc := mk.Clone()
	for step := 2; step <= opts.Steps; step++ {
		mk = mt.Mul(mk.Hadamard(mask))
		acc = acc.Add(mk)
	}
	clamp := func(v float64) float64 {
		if v > 1 {
			return 1
		}
		return v
	}
	for pid, pair := range g.Pairs {
		want := (clamp(acc.At(int(pair.I), int(pair.J))) + clamp(acc.At(int(pair.J), int(pair.I)))) / 2
		if math.Abs(got[pid]-want) > 1e-9 {
			t.Fatalf("pair %d: CliqueRank %g, dense reference %g", pid, got[pid], want)
		}
	}
}

func TestCliqueRankBonusHelpsBigClique(t *testing.T) {
	// Ablation 2: in a large clique the per-edge transition probability is
	// ~1/(k-1), so without the target bonus the S-step reaching probability
	// of a member pair is visibly lower.
	k := 40
	var pairs []index.Pair
	idx := map[uint64]int32{}
	var s []float64
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			idx[index.Key(int32(i), int32(j))] = int32(len(pairs))
			pairs = append(pairs, index.Pair{I: int32(i), J: int32(j)})
			s = append(s, 1)
		}
	}
	g := &index.Graph{NumRecords: k, Pairs: pairs, Index: idx}
	rg := BuildRecordGraph(g, s, k)

	with := DefaultOptions()
	without := DefaultOptions()
	without.DisableBonus = true
	pWith := CliqueRank(rg, with)
	pWithout := CliqueRank(rg, without)
	var meanWith, meanWithout float64
	for pid := range pairs {
		meanWith += pWith[pid]
		meanWithout += pWithout[pid]
	}
	meanWith /= float64(len(pairs))
	meanWithout /= float64(len(pairs))
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
	cross, _ := g.PairID(2, 3)
	if p[cross] < masked[cross]-1e-9 {
		t.Errorf("unmasked cross probability %g below masked %g", p[cross], masked[cross])
	}
}
