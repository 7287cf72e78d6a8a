package core

import (
	"math"
	"math/rand"

	"repro/internal/guard"
	"repro/internal/index"
	"repro/internal/parallel"
)

// ITERResult holds the output of one ITER run.
type ITERResult struct {
	// X is the learned term weight (discrimination power) x_t per term.
	X []float64
	// S is the learned pair similarity s(ri, rj) per candidate pair.
	S []float64
	// Updates records Σ_t |Δx_t| per inner iteration — the series plotted
	// in Figure 5.
	Updates []float64
	// Iterations is the number of inner iterations executed.
	Iterations int
	// Converged reports whether the loop stopped because Σ|Δx_t| fell
	// below opts.ITERTol (as opposed to hitting opts.ITERMaxIters or being
	// canceled mid-run).
	Converged bool
}

// iterScratch carries the working vectors of runITER across fusion rounds so
// the reinforcement loop performs no steady-state allocation. The zero value
// is ready to use; buffers grow on first use and are reused afterwards. The
// X/S slices of a result produced with a scratch alias these buffers and are
// only valid until the next runITER call on the same scratch.
type iterScratch struct {
	x, s, raw []float64
	active    []int32
	// ptr, terms and check are the current call's graph transpose and
	// checkpoint, read by gather. gatherFn is gather bound once per
	// scratch, so a sweep hands parallel.For no fresh closure.
	ptr, terms []int32
	check      *guard.Checkpoint
	gatherFn   func(lo, hi int)
}

func (sc *iterScratch) grow(numTerms, numPairs int) {
	if cap(sc.x) < numTerms {
		sc.x = make([]float64, numTerms)
	}
	sc.x = sc.x[:numTerms]
	if cap(sc.s) < numPairs {
		sc.s = make([]float64, numPairs)
	}
	sc.s = sc.s[:numPairs]
}

// gather is the term → pair sweep over pairs [lo, hi): s(ri,rj) = Σ x_t
// over the pair's terms, read from the pair→term transpose. Each pair
// writes only its own s, so chunks fan out race-free. Its terms ascend, so
// the sum adds them in the order a serial term-major scatter would, and
// skipping x_t = 0 there is exact for non-negative weights: the sweep is
// bit-identical to that scatter (TestITERGatherMatchesScatter).
func (sc *iterScratch) gather(lo, hi int) {
	// One poll per chunk (≤ Grain pairs), none per pair: frequent enough
	// that a canceled run stops within a few thousand additions.
	if sc.check.Tick() != nil {
		return
	}
	ptr, terms, x, s := sc.ptr, sc.terms, sc.x, sc.s
	for pid := lo; pid < hi; pid++ {
		var acc float64
		for k, end := ptr[pid], ptr[pid+1]; k < end; k++ {
			acc += x[terms[k]]
		}
		s[pid] = acc
	}
}

// RunITER executes Algorithm 1 on the bipartite term/pair graph. p is the
// edge weight p(ri, rj) per pair node (initialized to 1 before CliqueRank
// has produced an estimate). rng drives the random initialization of x_t.
//
// Each iteration performs the two propagation sweeps of Eq. 6–7:
//
//	s(ri,rj) ← Σ_{t ∈ ri ∧ t ∈ rj} x_t                 (term → pair)
//	x_t      ← Σ_{(ri,rj) ∋ t} p(ri,rj)·s(ri,rj) / P_t  (pair → term)
//	x_t      ← x_t / (1 + x_t)                          (normalization)
//
// and runs until Σ|Δx_t| < opts.ITERTol or opts.ITERMaxIters is reached.
// Terms connected to no pair node (P_t = 0) keep weight 0: they occur in a
// single record and cannot influence any similarity.
//
// Both sweeps and the convergence reductions fan out over opts.Workers
// goroutines through the deterministic chunked scheduler; the output is
// bit-identical for every worker count.
func RunITER(g *index.Graph, p []float64, opts Options, rng *rand.Rand) *ITERResult {
	return runITER(g, p, opts, rng, &iterScratch{})
}

func runITER(g *index.Graph, p []float64, opts Options, rng *rand.Rand, sc *iterScratch) *ITERResult {
	if len(p) != g.NumPairs() {
		//lint:invariant alignment is established by RunFusion, the only production caller; tests assert on this panic
		panic("core: p must be aligned with candidate pairs")
	}
	sc.grow(g.NumTerms, g.NumPairs())
	x, s := sc.x, sc.s
	for t := range x {
		if g.Pt(t) > 0 {
			x[t] = rng.Float64()
		} else {
			x[t] = 0
		}
	}
	res := &ITERResult{X: x, S: s}

	// Terms connected to at least one pair node; only these carry weight.
	sc.active = sc.active[:0]
	for t := range g.TermPairs {
		if g.Pt(t) > 0 {
			sc.active = append(sc.active, int32(t))
		}
	}
	active := sc.active
	if cap(sc.raw) < len(active) {
		sc.raw = make([]float64, len(active))
	}
	sc.raw = sc.raw[:len(active)]
	raw := sc.raw

	workers := opts.Workers

	sc.ptr, sc.terms, sc.check = g.PairTermPtr, g.PairTerms, opts.Check
	if sc.gatherFn == nil {
		sc.gatherFn = sc.gather
	}

	// Pair → term sweep with the P_t punishment and the p(ri,rj) edge
	// weight. Chunks write disjoint raw[lo:hi], so the fan-out is race-free
	// and order-independent.
	pairToTerm := func(lo, hi int) {
		// Polled per chunk, like gather.
		if opts.Check.Tick() != nil {
			return
		}
		for k := lo; k < hi; k++ {
			pairIDs := g.TermPairs[active[k]]
			var acc float64
			for _, pid := range pairIDs {
				acc += p[pid] * s[pid]
			}
			if !opts.DisableDenominator {
				//lint:ignore floatguard active terms have Pt > 0, so pairIDs is never empty
				acc /= float64(len(pairIDs))
			}
			raw[k] = acc
		}
	}

	// Normalization passes: the bounded map x = x/(1+x) (the paper's
	// 1/(1+1/x), written division-safely) or the L2 alternative §V-C
	// mentions. Each returns the chunk's Σ|Δx_t| partial; ReduceSum folds
	// partials in ascending chunk order, so the convergence series is a pure
	// function of the input regardless of worker count.
	normBounded := func(lo, hi int) float64 {
		var delta float64
		for k := lo; k < hi; k++ {
			t := active[k]
			nx := raw[k] / (1 + raw[k])
			delta += math.Abs(nx - x[t])
			x[t] = nx
		}
		return delta
	}
	sumSquares := func(lo, hi int) float64 {
		var norm float64
		for k := lo; k < hi; k++ {
			norm += raw[k] * raw[k]
		}
		return norm
	}

	for iter := 0; iter < opts.ITERMaxIters; iter++ {
		// Cancellation is polled once per sweep pair: a canceled run exits
		// with the weights of the last completed iteration, and the caller
		// (RunFusion) surfaces the checkpoint's error.
		if opts.Check.Err() != nil {
			break
		}
		parallel.For(workers, len(s), sc.gatherFn)
		parallel.For(workers, len(active), pairToTerm)
		var delta float64
		switch opts.Normalization {
		case NormL2:
			norm := math.Sqrt(parallel.ReduceSum(workers, len(active), sumSquares))
			delta = parallel.ReduceSum(workers, len(active), func(lo, hi int) float64 {
				var d float64
				for k := lo; k < hi; k++ {
					t := active[k]
					nx := 0.0
					if norm > 0 {
						nx = raw[k] / norm
					}
					d += math.Abs(nx - x[t])
					x[t] = nx
				}
				return d
			})
		default: // NormBounded
			delta = parallel.ReduceSum(workers, len(active), normBounded)
		}
		res.Updates = append(res.Updates, delta)
		res.Iterations = iter + 1
		if delta < opts.ITERTol {
			res.Converged = true
			break
		}
	}
	// Final term → pair sweep so S reflects the converged weights.
	parallel.For(workers, len(s), sc.gatherFn)
	return res
}
