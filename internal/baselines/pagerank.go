// Package baselines implements the paper's graph-theoretic baseline
// competitors (§III): SimRank on the record-term bipartite graph, PageRank
// term salience with TW-IDF textual similarity on the term co-occurrence
// graph, and their linear Hybrid combination.
package baselines

import (
	"math"

	"repro/internal/graph"
	"repro/internal/guard"
	"repro/internal/index"
	"repro/internal/textproc"
)

// PageRankOptions configures the TextRank-style salience computation.
type PageRankOptions struct {
	// Damping is φ in Eq. 3, "generally set to 0.85".
	Damping float64
	// Window is the co-occurrence sliding-window size of the term graph.
	Window int
	// MaxIters bounds the power iteration.
	MaxIters int
	// Tol stops iteration when the L1 change drops below it.
	Tol float64
	// Check, when non-nil, is polled once per power iteration; on
	// cancellation PageRank stops early and returns the current iterate
	// (the nil-safe no-op behavior of guard.Checkpoint applies).
	Check *guard.Checkpoint
}

// DefaultPageRankOptions mirrors the paper's setting (φ = 0.85) with the
// TextRank-standard window of 4.
func DefaultPageRankOptions() PageRankOptions {
	return PageRankOptions{Damping: 0.85, Window: 4, MaxIters: 100, Tol: 1e-9}
}

// PageRank runs the undirected-graph salience recurrence of Eq. 3,
//
//	s(ti) = (1-φ) + φ · Σ_{tj ∈ N(ti)} s(tj)/|N(tj)|,
//
// normalizing each contribution by the emitting node's degree (the TextRank
// convention; the paper's Eq. 3 prints |N(ti)| in the denominator, which
// does not conserve mass on undirected graphs — we follow the TextRank
// original the baseline cites). Isolated terms keep the base salience 1-φ.
func PageRank(g *graph.TermGraph, opts PageRankOptions) []float64 {
	n := g.NumTerms()
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	next := make([]float64, n)
	for iter := 0; iter < opts.MaxIters; iter++ {
		if opts.Check.Err() != nil {
			break
		}
		var delta float64
		for i := 0; i < n; i++ {
			var sum float64
			for _, j := range g.Adj[i] {
				sum += s[j] / float64(g.Degree(int(j)))
			}
			next[i] = (1 - opts.Damping) + opts.Damping*sum
			delta += math.Abs(next[i] - s[i])
		}
		s, next = next, s
		if delta < opts.Tol {
			break
		}
	}
	return s
}

// TWIDF scores every candidate pair with the TW-IDF textual similarity of
// Eq. 4: the sum over shared terms of salience(t) · log((n+1)/df(t)).
func TWIDF(c *textproc.Corpus, g *index.Graph, salience []float64) []float64 {
	n := float64(c.NumRecords())
	idf := make([]float64, c.NumTerms())
	for t, df := range c.DF {
		if df > 0 {
			idf[t] = math.Log((n + 1) / float64(df))
		}
	}
	out := make([]float64, g.NumPairs())
	//lint:ignore guardloop output-sized pass over candidate pairs already bounded by guarded blocking; inner loop is a shared-term intersection
	for id, p := range g.Pairs {
		var s float64
		for _, t := range textproc.IntersectSorted(c.Docs[p.I], c.Docs[p.J]) {
			s += salience[t] * idf[t]
		}
		out[id] = s
	}
	return out
}

// PageRankTWIDF is the full §III-B baseline: build the term co-occurrence
// graph, compute PageRank salience and score candidate pairs with TW-IDF.
// It returns both the pair scores and the term salience (the latter feeds
// the Table IV Spearman comparison).
func PageRankTWIDF(c *textproc.Corpus, g *index.Graph, opts PageRankOptions) (scores, salience []float64) {
	tg := graph.NewTermGraph(c, opts.Window)
	salience = PageRank(tg, opts)
	return TWIDF(c, g, salience), salience
}
