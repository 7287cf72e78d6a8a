package baselines

import (
	"repro/internal/guard"
	"repro/internal/index"
	"repro/internal/textproc"
)

// SimRankOptions configures bipartite SimRank (§III-A).
type SimRankOptions struct {
	// C1 and C2 are the decay factors of Eq. 1 and Eq. 2, set to 0.8 in the
	// paper following Jeh & Widom.
	C1, C2 float64
	// Iters is the number of alternating record/term iterations.
	Iters int
	// MaxProduct prunes term pairs whose inverted-list size product exceeds
	// this bound. Bipartite SimRank is quadratic in list sizes; pruned pairs
	// keep similarity 0, a standard sparse-SimRank approximation that only
	// affects very frequent (hence non-discriminative) term pairs.
	// Zero disables pruning.
	MaxProduct int
	// Check, when non-nil, is polled throughout the quadratic expansion
	// sweeps; on cancellation SimRank stops early and returns the current
	// similarity estimates.
	Check *guard.Checkpoint
}

// DefaultSimRankOptions mirrors the paper: C1 = C2 = 0.8, 5 iterations.
func DefaultSimRankOptions() SimRankOptions {
	return SimRankOptions{C1: 0.8, C2: 0.8, Iters: 5, MaxProduct: 200_000}
}

// SimRank computes bipartite SimRank record similarities (Eq. 1–2) on the
// record-term graph. Record-pair similarity is maintained on the candidate
// set (records sharing >= 1 term); term-pair similarity on pairs of terms
// co-occurring in at least one record. Pairs outside these supports stay at
// 0, which is exact for the first expansion and a conservative
// approximation afterwards.
//
// The returned slice is aligned with g.Pairs.
func SimRank(c *textproc.Corpus, g *index.Graph, opts SimRankOptions) []float64 {
	if opts.Iters <= 0 {
		opts.Iters = 5
	}

	// Inverted index I(t): records containing term t.
	inv := make([][]int32, c.NumTerms())
	for r, doc := range c.Docs {
		for _, t := range doc {
			inv[t] = append(inv[t], int32(r))
		}
	}

	// Term-pair support: distinct term pairs co-occurring inside a record.
	type tpair struct{ a, b int32 }
	tpairIdx := make(map[tpair]int)
	var tpairs []tpair
	for _, doc := range c.Docs {
		for x := 0; x < len(doc); x++ {
			for y := x + 1; y < len(doc); y++ {
				tp := tpair{doc[x], doc[y]}
				if _, ok := tpairIdx[tp]; !ok {
					if opts.MaxProduct > 0 && len(inv[tp.a])*len(inv[tp.b]) > opts.MaxProduct {
						continue
					}
					tpairIdx[tp] = len(tpairs)
					tpairs = append(tpairs, tp)
				}
			}
		}
	}

	recSim := make([]float64, g.NumPairs()) // aligned with g.Pairs
	pairID := make(map[uint64]int, g.NumPairs())
	for id, pr := range g.Pairs {
		pairID[index.Key(pr.I, pr.J)] = id
	}
	termSim := make([]float64, len(tpairs)) // aligned with tpairs

	// recLookup returns s_b(ri, rj) including the diagonal s(r, r) = 1.
	recLookup := func(ri, rj int32) float64 {
		if ri == rj {
			return 1
		}
		if id, ok := pairID[index.Key(ri, rj)]; ok {
			return recSim[id]
		}
		return 0
	}
	// termLookup returns s_b(ti, tj) including the diagonal.
	termLookup := func(ti, tj int32) float64 {
		if ti == tj {
			return 1
		}
		if ti > tj {
			ti, tj = tj, ti
		}
		if id, ok := tpairIdx[tpair{ti, tj}]; ok {
			return termSim[id]
		}
		return 0
	}

	for iter := 0; iter < opts.Iters; iter++ {
		// Eq. 2: term similarity from record similarity.
		for id, tp := range tpairs {
			if opts.Check.Tick() != nil {
				return recSim
			}
			ia, ib := inv[tp.a], inv[tp.b]
			if len(ia) == 0 || len(ib) == 0 {
				continue
			}
			var sum float64
			for _, ri := range ia {
				for _, rj := range ib {
					sum += recLookup(ri, rj)
				}
			}
			termSim[id] = opts.C2 * sum / (float64(len(ia)) * float64(len(ib)))
		}
		// Eq. 1: record similarity from term similarity.
		for id, p := range g.Pairs {
			if opts.Check.Tick() != nil {
				return recSim
			}
			oa, ob := c.Docs[p.I], c.Docs[p.J]
			if len(oa) == 0 || len(ob) == 0 {
				continue
			}
			var sum float64
			for _, ta := range oa {
				for _, tb := range ob {
					sum += termLookup(ta, tb)
				}
			}
			recSim[id] = opts.C1 * sum / (float64(len(oa)) * float64(len(ob)))
		}
	}
	return recSim
}
