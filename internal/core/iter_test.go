package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

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

// RunITER runs ITER once, on a fresh scratch.
func RunITER(g *index.Graph, p []float64, opts Options, rng *rand.Rand) *ITERResult {
	return runITER(g, p, opts, rng, &iterScratch{})
}

func onesP(g *index.Graph) []float64 {
	p := make([]float64, g.NumPairs())
	for i := range p {
		p[i] = 1
	}
	return p
}

// A small corpus where "model1"/"model2" are discriminative (shared only by
// matching duplicates) and "product" is a domain stop word shared by
// everyone.
var craftedTexts = []string{
	"product model1 alpha",  // 0 \ entity A
	"product model1 beta",   // 1 /
	"product model2 gamma",  // 2 \ entity B
	"product model2 delta",  // 3 /
	"product epsilon zeta1", // 4 singletons
	"product theta2 iota",   // 5
}

func TestRunITERConverges(t *testing.T) {
	_, g := setup(craftedTexts...)
	opts := DefaultOptions()
	res := RunITER(g, onesP(g), opts, rand.New(rand.NewSource(1)))
	if res.Iterations >= opts.ITERMaxIters {
		t.Errorf("ITER did not converge within %d iterations", opts.ITERMaxIters)
	}
	last := res.Updates[len(res.Updates)-1]
	if last >= opts.ITERTol {
		t.Errorf("final update %g not below tol %g", last, opts.ITERTol)
	}
	// The paper's Figure 5 shape: updates spike early then decay.
	if res.Updates[0] <= last {
		t.Error("update magnitude must decay from first to last iteration")
	}
}

func TestRunITERWeightsBounded(t *testing.T) {
	_, g := setup(craftedTexts...)
	res := RunITER(g, onesP(g), DefaultOptions(), rand.New(rand.NewSource(2)))
	for tID, x := range res.X {
		if x < 0 || x >= 1 {
			t.Errorf("x[%d] = %g outside [0,1) after x/(1+x) normalization", tID, x)
		}
	}
	for pid, s := range res.S {
		if s < 0 {
			t.Errorf("s[%d] = %g negative", pid, s)
		}
	}
}

func TestRunITERDiscriminativeTermsWin(t *testing.T) {
	c, g := setup(craftedTexts...)
	res := RunITER(g, onesP(g), DefaultOptions(), rand.New(rand.NewSource(3)))
	model1 := res.X[termID(c, "model1")]
	common := res.X[termID(c, "product")]
	if model1 <= common {
		t.Errorf("discriminative term weight %g must exceed stop-word weight %g", model1, common)
	}
	// And consequently the duplicate pair outscores a spurious pair that
	// only shares the stop word.
	dup, _ := pairID(g, 0, 1)
	spurious, _ := pairID(g, 0, 2)
	if res.S[dup] <= res.S[spurious] {
		t.Errorf("duplicate similarity %g must exceed spurious %g", res.S[dup], res.S[spurious])
	}
}

func TestRunITERWithoutDenominatorFavorsCommonTerms(t *testing.T) {
	// Ablation 4 (DESIGN.md): dropping the P_t denominator makes the
	// frequent term accumulate mass from its many pairs, PageRank-style.
	c, g := setup(craftedTexts...)
	opts := DefaultOptions()
	opts.DisableDenominator = true
	res := RunITER(g, onesP(g), opts, rand.New(rand.NewSource(3)))
	model1 := res.X[termID(c, "model1")]
	common := res.X[termID(c, "product")]
	if common <= model1 {
		t.Errorf("without the P_t denominator the frequent term (%g) should dominate the rare one (%g)", common, model1)
	}
}

func TestRunITERPairProbabilityGatesPropagation(t *testing.T) {
	// Setting p = 0 on the spurious pairs must raise the relative weight of
	// terms shared only by matching pairs.
	c, g := setup(craftedTexts...)
	rng := rand.New(rand.NewSource(4))
	uniform := RunITER(g, onesP(g), DefaultOptions(), rand.New(rand.NewSource(4)))

	p := onesP(g)
	for pid, pair := range g.Pairs {
		match := (pair.I == 0 && pair.J == 1) || (pair.I == 2 && pair.J == 3)
		if !match {
			p[pid] = 0
		}
	}
	gated := RunITER(g, p, DefaultOptions(), rng)
	common := termID(c, "product")
	if gated.X[common] >= uniform.X[common] {
		t.Errorf("zeroing non-matching pairs must reduce stop-word weight: %g -> %g",
			uniform.X[common], gated.X[common])
	}
}

func TestRunITERDeterministic(t *testing.T) {
	_, g := setup(craftedTexts...)
	a := RunITER(g, onesP(g), DefaultOptions(), rand.New(rand.NewSource(7)))
	b := RunITER(g, onesP(g), DefaultOptions(), rand.New(rand.NewSource(7)))
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatal("same seed must reproduce identical weights")
		}
	}
}

func TestRunITERSeedInsensitiveAtConvergence(t *testing.T) {
	// Theorem 1: the iteration converges to the principal eigenvector, so
	// different random initializations must land on (nearly) the same
	// fixed point.
	_, g := setup(craftedTexts...)
	a := RunITER(g, onesP(g), DefaultOptions(), rand.New(rand.NewSource(1)))
	b := RunITER(g, onesP(g), DefaultOptions(), rand.New(rand.NewSource(99)))
	for i := range a.X {
		if math.Abs(a.X[i]-b.X[i]) > 1e-3 {
			t.Fatalf("x[%d] differs across seeds: %g vs %g", i, a.X[i], b.X[i])
		}
	}
}

// TestITERLoopMatchesMatrixForm cross-validates one loop iteration against
// the §V-D matrix formulation y = Sᵀx, x = D⁻¹SCy.
func TestITERLoopMatchesMatrixForm(t *testing.T) {
	_, g := setup(craftedTexts...)
	p := make([]float64, g.NumPairs())
	rng := rand.New(rand.NewSource(5))
	for i := range p {
		p[i] = rng.Float64()
	}
	x0 := make([]float64, g.NumTerms)
	for i := range x0 {
		if g.Pt(i) > 0 {
			x0[i] = rng.Float64()
		}
	}

	// Matrix form.
	xMat, yMat := iterMatrixStep(g, p, x0)

	// Loop form, one iteration, starting from the same x0.
	s := make([]float64, g.NumPairs())
	for tID, pairIDs := range g.TermPairs {
		for _, pid := range pairIDs {
			s[pid] += x0[tID]
		}
	}
	for pid := range s {
		if math.Abs(s[pid]-yMat[pid]) > 1e-12 {
			t.Fatalf("pair %d: loop s=%g, matrix y=%g", pid, s[pid], yMat[pid])
		}
	}
	xLoop := make([]float64, g.NumTerms)
	for tID, pairIDs := range g.TermPairs {
		if len(pairIDs) == 0 {
			continue
		}
		var acc float64
		for _, pid := range pairIDs {
			acc += p[pid] * s[pid]
		}
		acc /= float64(len(pairIDs))
		xLoop[tID] = acc / (1 + acc)
	}
	for tID := range xLoop {
		if math.Abs(xLoop[tID]-xMat[tID]) > 1e-12 {
			t.Fatalf("term %d: loop x=%g, matrix x=%g", tID, xLoop[tID], xMat[tID])
		}
	}
}

func TestRunITERPanicsOnMisalignedP(t *testing.T) {
	_, g := setup(craftedTexts...)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on misaligned p")
		}
	}()
	RunITER(g, make([]float64, 1), DefaultOptions(), rand.New(rand.NewSource(1)))
}

func TestRunITERL2Normalization(t *testing.T) {
	c, g := setup(craftedTexts...)
	opts := DefaultOptions()
	opts.Normalization = NormL2
	res := RunITER(g, onesP(g), opts, rand.New(rand.NewSource(6)))
	// Unit Euclidean norm over active terms.
	var norm float64
	for _, x := range res.X {
		norm += x * x
	}
	if math.Abs(norm-1) > 1e-9 {
		t.Errorf("L2 norm of weights = %g, want 1", math.Sqrt(norm))
	}
	// The discriminative-vs-common ordering must be normalization-invariant.
	if res.X[termID(c, "model1")] <= res.X[termID(c, "product")] {
		t.Error("L2 normalization must preserve term ordering")
	}
	if res.Iterations >= opts.ITERMaxIters {
		t.Error("L2 variant did not converge")
	}
}

func TestNormalizationString(t *testing.T) {
	if NormBounded.String() != "bounded" || NormL2.String() != "l2" {
		t.Error("unexpected Stringer output")
	}
	if Normalization(99).String() != "unknown" {
		t.Error("unknown normalization must stringify to unknown")
	}
}

// iterMatrixStep performs one ITER iteration in the matrix form of §V-D,
//
//	y = Sᵀ x ;  x = D⁻¹ S C y,
//
// where S is the m×q bipartite adjacency (terms × pair nodes), D the
// diagonal of P_t and C the diagonal of p(ri, rj), followed by the same
// x/(1+x) normalization as the loop implementation. S is read entry by
// entry from the pair→term transpose, not from the TermPairs lists the
// loop form sweeps.
func iterMatrixStep(g *index.Graph, p, x []float64) (xNext, y []float64) {
	y = make([]float64, g.NumPairs())
	xNext = make([]float64, g.NumTerms)
	for b := range y {
		for _, t := range g.PairTerms[g.PairTermPtr[b]:g.PairTermPtr[b+1]] {
			y[b] += x[t] // y = Sᵀ x
		}
	}
	for b := range y {
		for _, t := range g.PairTerms[g.PairTermPtr[b]:g.PairTermPtr[b+1]] {
			xNext[t] += p[b] * y[b] // S C y
		}
	}
	for t := range xNext {
		if pt := g.Pt(t); pt > 0 {
			xNext[t] /= float64(pt) // D⁻¹
		}
		xNext[t] = xNext[t] / (1 + xNext[t])
	}
	return xNext, y
}

// termID returns a kept term's ID by binary search over the corpus's
// ascending Terms, or -1 when the corpus does not keep it.
func termID(c *textproc.Corpus, term string) int {
	if id, ok := slices.BinarySearch(c.Terms, term); ok {
		return id
	}
	return -1
}
