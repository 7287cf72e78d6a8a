package core

import (
	"repro/internal/index"
	"repro/internal/matrix"
)

// iterMatrixStep performs one ITER iteration in the matrix form of §V-D,
//
//	y = Sᵀ x ;  x = D⁻¹ S C y,
//
// where S is the m×q bipartite adjacency (terms × pair nodes), D the
// diagonal of P_t and C the diagonal of p(ri, rj), followed by the same
// x/(1+x) normalization as the loop implementation. It exists to
// cross-validate RunITER against the formulation the convergence proof
// (Theorem 1) is stated in; the loop form is the production path.
func iterMatrixStep(g *index.Graph, p, x []float64) (xNext, y []float64) {
	s := bipartiteCSR(g)
	y = s.MulVecT(x) // y = Sᵀ x
	cy := make([]float64, len(y))
	for b := range y {
		cy[b] = p[b] * y[b]
	}
	xNext = s.MulVec(cy) // S C y
	for t := range xNext {
		if pt := g.Pt(t); pt > 0 {
			xNext[t] /= float64(pt) // D⁻¹
		}
		xNext[t] = xNext[t] / (1 + xNext[t])
	}
	return xNext, y
}

// bipartiteCSR materializes the bipartite adjacency matrix S with
// S[t, b] = 1 iff term t connects pair node b.
func bipartiteCSR(g *index.Graph) *matrix.CSR {
	var entries []matrix.Entry
	//lint:ignore guardloop output-sized materialization used only by the cross-validation path, not production
	for t, pairIDs := range g.TermPairs {
		for _, pid := range pairIDs {
			entries = append(entries, matrix.Entry{Row: int32(t), Col: pid, Val: 1})
		}
	}
	return matrix.NewCSR(g.NumTerms, g.NumPairs(), entries)
}
