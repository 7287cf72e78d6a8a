package core

import (
	"math"
	"time"

	"repro/internal/index"
)

// FusionResult is the output of the full ITER ⇄ CliqueRank framework.
type FusionResult struct {
	// X is the final term weight vector.
	X []float64
	// S is the final pair similarity s(ri, rj).
	S []float64
	// P is the final matching probability p(ri, rj) ∈ [0, 1].
	P []float64
	// Matches flags the pairs with P >= opts.Eta.
	Matches []bool
	// Nodes and Edges are the last round's record-graph size — the record
	// count and the kept (similarity > 0) pair count. The graph itself is
	// released when the run finishes; BuildRecordGraph(g, S, numRecords)
	// rebuilds it.
	Nodes, Edges int
	// ITERTrace records, per fusion iteration, the Σ|Δx_t| update series of
	// the inner ITER loop (the Figure 5 data, concatenated across fusion
	// iterations).
	ITERTrace [][]float64
	// ITERIterations records, per fusion iteration, how many inner ITER
	// iterations ran before the Σ|Δx_t| < ITERTol stop (or the
	// ITERMaxIters cap).
	ITERIterations []int
	// Converged reports whether every inner ITER run reached its tolerance
	// before hitting ITERMaxIters. When false, the result was truncated at
	// the iteration cap and X/S carry the last (unconverged) sweep.
	Converged bool
	// NumericRepairs counts the non-finite values (NaN, ±Inf) detected in
	// x, s or p across fusion rounds and replaced by the documented
	// fallback (0 for weights and similarities; p additionally clamped to
	// [0, 1]). A non-zero count signals a numeric instability upstream —
	// the outputs remain finite but should be treated with suspicion.
	NumericRepairs int
	// Elapsed is the total wall-clock time of the fusion loop.
	Elapsed time.Duration
}

// RunFusion executes the full unsupervised framework of Figure 2 on a
// blocked candidate set:
//
//	p ← 1 for every pair
//	repeat FusionIterations times:
//	    x, s ← ITER(bipartite graph, p)      (§V)
//	    G_r  ← record graph weighted by s     (§VI-A)
//	    p    ← CliqueRank(G_r)  (or RSS)      (§VI-B/C)
//
// After the last round, pairs with p >= η are declared matches.
// opts.Progress, when set, observes every iteration (the Table V hook).
//
// RunFusion ranks g as one record graph; engine.Fuse ranks each connected
// component on its own, which gives the same bits.
//
// A zero opts.Seed is normalized to 1 (the library-wide default). When
// opts.Check reports cancellation, RunFusion stops between sweeps and
// returns the checkpoint's error with a nil result; after every round the
// x/s/p vectors are scanned for NaN/±Inf and sanitized (see
// FusionResult.NumericRepairs).
func RunFusion(g *index.Graph, numRecords int, opts Options) (*FusionResult, error) {
	// The reinforcement loop reuses its working memory across rounds: the
	// ITER scratch carries the x/s/raw vectors, the record graph and its
	// mask plan are held for the run and reweighted, the arena recycles
	// CliqueRank's buffers, and p is rewritten in place, so the steady
	// state of the loop allocates nothing but ITER's per-call result.
	f := NewFusionRun(g, numRecords, opts)
	for f.Next() {
		if _, err := f.StepITER(); err != nil {
			return nil, err
		}
		if _, err := f.StepRank(); err != nil {
			return nil, err
		}
	}
	return f.Finish(), nil
}

// sanitizeNonNegative replaces NaN/±Inf (and the negative values that only a
// numeric fault can produce in term weights or shared-term similarities)
// with 0 — the neutral element of both vectors: a zero term weight carries
// no evidence and a zero similarity drops the edge from G_r. It returns the
// number of repairs.
func sanitizeNonNegative(v []float64) int {
	n := 0
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			v[i] = 0
			n++
		}
	}
	return n
}

// sanitizeProbabilities forces p into [0, 1]: NaN becomes 0 (no evidence),
// +Inf and overshoots clamp to 1, -Inf and undershoots to 0. It returns the
// number of repairs. Ordinary rounding noise is not counted — CliqueRank
// already clamps per direction — so any repair here indicates a real fault.
func sanitizeProbabilities(p []float64) int {
	n := 0
	for i, x := range p {
		switch {
		case math.IsNaN(x):
			p[i] = 0
			n++
		case x > 1:
			p[i] = 1
			n++
		case x < 0:
			p[i] = 0
			n++
		}
	}
	return n
}
