package baselines

import (
	"math"

	"repro/internal/guard"
	"repro/internal/index"
	"repro/internal/textproc"
)

// BiRankOptions configures the BiRank computation.
type BiRankOptions struct {
	// Alpha and Beta damp the record-side and term-side updates (0.85 in
	// the BiRank paper's default setting).
	Alpha, Beta float64
	// MaxIters bounds the alternating iteration.
	MaxIters int
	// Tol stops iteration when the L1 change of the term vector drops
	// below it.
	Tol float64
	// Check, when non-nil, is polled once per alternating iteration; on
	// cancellation BiRank stops early and returns the current iterates.
	Check *guard.Checkpoint
}

// DefaultBiRankOptions mirrors the BiRank paper's defaults.
func DefaultBiRankOptions() BiRankOptions {
	return BiRankOptions{Alpha: 0.85, Beta: 0.85, MaxIters: 100, Tol: 1e-9}
}

// BiRank computes term and record salience on the record-term bipartite
// graph with the symmetrically-normalized alternating updates of He et al.,
// "BiRank: Towards Ranking on Bipartite Graphs" (the paper's ref [28]):
//
//	t = α · S  r + (1-α) · t0
//	r = β · Sᵀ t + (1-β) · r0
//
// where S = D_t^(-1/2) W D_r^(-1/2) is the degree-normalized incidence
// matrix and t0, r0 are uniform query vectors. It is the principled
// bipartite counterpart of the TextRank-style term graph and completes the
// §III family of graph-theoretic weighting baselines.
func BiRank(c *textproc.Corpus, opts BiRankOptions) (termRank, recordRank []float64) {
	m, n := c.NumTerms(), c.NumRecords()
	termDeg := make([]float64, m)
	recDeg := make([]float64, n)
	for r, doc := range c.Docs {
		recDeg[r] = float64(len(doc))
		for _, t := range doc {
			termDeg[t]++
		}
	}
	invSqrt := func(v float64) float64 {
		if v == 0 {
			return 0
		}
		return 1 / math.Sqrt(v)
	}

	t0 := 1.0 / float64(m)
	r0 := 1.0 / float64(n)
	termRank = make([]float64, m)
	recordRank = make([]float64, n)
	for i := range termRank {
		termRank[i] = t0
	}
	for i := range recordRank {
		recordRank[i] = r0
	}

	next := make([]float64, m)
	for iter := 0; iter < opts.MaxIters; iter++ {
		if opts.Check.Err() != nil {
			break
		}
		// t = α S r + (1-α) t0
		for i := range next {
			next[i] = 0
		}
		for r, doc := range c.Docs {
			rr := recordRank[r] * invSqrt(recDeg[r])
			for _, t := range doc {
				next[t] += rr * invSqrt(termDeg[t])
			}
		}
		var delta float64
		for i := range next {
			v := opts.Alpha*next[i] + (1-opts.Alpha)*t0
			delta += math.Abs(v - termRank[i])
			termRank[i] = v
		}
		// r = β Sᵀ t + (1-β) r0
		for r, doc := range c.Docs {
			var sum float64
			for _, t := range doc {
				sum += termRank[t] * invSqrt(termDeg[t])
			}
			recordRank[r] = opts.Beta*sum*invSqrt(recDeg[r]) + (1-opts.Beta)*r0
		}
		if delta < opts.Tol {
			break
		}
	}
	return termRank, recordRank
}

// BiRankTWIDF scores candidate pairs with TW-IDF textual similarity using
// BiRank term salience in place of PageRank salience — the drop-in variant
// of the §III-B baseline on the bipartite graph instead of the term
// co-occurrence graph.
func BiRankTWIDF(c *textproc.Corpus, g *index.Graph, opts BiRankOptions) (scores, salience []float64) {
	salience, _ = BiRank(c, opts)
	return TWIDF(c, g, salience), salience
}
