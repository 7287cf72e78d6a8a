package core

import (
	"math"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

// CliqueRank implements the matrix reformulation of RSS (§VI-C). It builds
// the non-linearly normalized transition matrix M_t (Eq. 11, 13), the
// weight-boosted first-step matrix M_b (Eq. 12), iterates
//
//	Mᵏ = M_t × (Mᵏ⁻¹ ⊙ M_n),  M¹ = M_b,
//
// and accumulates the bidirectional matching probability of Eq. 15:
//
//	p(ri, rj) = Σ_{k=1..S} (Mᵏ[i,j] + Mᵏ[j,i]) / 2,  clamped to [0, 1].
//
// Because every iterate is masked by the adjacency M_n before the next
// product, the whole chain lives on the record graph's sparsity pattern;
// each step costs Σ_i deg(i)² sparse-dot operations instead of n³
// (matrix.MaskedMul). This replaces the Eigen-based dense products of the
// original implementation.
//
// The returned slice is aligned with the candidate pairs; dropped pairs get
// probability 0.
func CliqueRank(rg *RecordGraph, opts Options) []float64 {
	p := make([]float64, len(rg.PairSlot))
	CliqueRankInto(rg, opts, p)
	return p
}

// CliqueRankInto writes the CliqueRank probabilities into p (length
// len(rg.PairSlot)), overwriting every element, and draws all matrix
// scratch from the record graph's arena when it has one. The row loops, the
// masked products, and the readout fan out over opts.Workers goroutines
// through the deterministic scheduler; every worker count produces
// bit-identical probabilities.
func CliqueRankInto(rg *RecordGraph, opts Options, p []float64) {
	pat := rg.Pattern
	ar := rg.arena
	nnz := pat.NNZ()
	workers := opts.Workers

	// Per-row max-normalized powered weights w(i,j) = (s(i,j)/smax_i)^α and
	// their row sums, the transition matrix M_t of Eq. 11 (zero-sum rows
	// stay zero: isolated or zero-weight), and the boosted first-step matrix
	// M_b of Eq. 12, all in one parallel row pass — each row writes only its
	// own slots of w/mt/mb and its own rowSum entry, so the fan-out is
	// race-free and bit-identical for any worker count.
	//
	// On M_b: in RSS the bonus b ∈ (0,1) is redrawn at every step of every
	// one of the M walks, so the per-walk boosted transition probability
	// that the success frequency estimates is the expectation over b. The
	// matrix analog is therefore E_b[p_b(i → j)], which we evaluate by
	// midpoint quadrature: norm = rowSum_i − w(i,j) + (1+b)^α·w(i,j) per
	// sample. (Sampling b once per entry instead would make weak-tied
	// entries saturate at ≈1 whenever the single draw lands high — a
	// false-positive generator RSS does not have.)
	w := &matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
	rowSum := ar.getF64(pat.N)
	mt := &matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
	mb := mt
	const quadraturePoints = 8
	var boost [quadraturePoints]float64
	if !opts.DisableBonus {
		mb = &matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
		for q := range boost {
			b := (float64(q) + 0.5) / quadraturePoints
			boost[q] = math.Pow(1+b, opts.Alpha)
		}
	}
	// Grains are pure functions of the graph shape (never the worker
	// count), so the chunk sets — and with them the bits — are identical
	// for every Workers setting. The row pass costs ~deg(i) pow calls per
	// row, the accumulate pass one add per slot, so the default Grain=256
	// rows is far too coarse for the former and too fine for the latter.
	rowGrain := parallel.GrainFor(pat.N, nnz+pat.N, 512)
	const addGrain = 8192
	parallel.ForGrain(workers, pat.N, rowGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// One poll per row bounds post-cancellation work to a row per
			// worker; the torn matrices are discarded by RunFusion together
			// with the checkpoint's error.
			if opts.Check.Tick() != nil {
				return
			}
			_, vals := rg.S.RowSlice(i)
			smax := 0.0
			for _, v := range vals {
				if v > smax {
					smax = v
				}
			}
			if smax == 0 {
				continue
			}
			klo, khi := pat.RowPtr[i], pat.RowPtr[i+1]
			for k := klo; k < khi; k++ {
				w.Val[k] = math.Pow(rg.S.Val[k]/smax, opts.Alpha)
				rowSum[i] += w.Val[k]
			}
			if rowSum[i] == 0 {
				continue
			}
			for k := klo; k < khi; k++ {
				mt.Val[k] = w.Val[k] / rowSum[i]
			}
			if opts.DisableBonus {
				continue
			}
			for k := klo; k < khi; k++ {
				var sum float64
				for _, bf := range boost {
					boosted := bf * w.Val[k]
					if norm := rowSum[i] - w.Val[k] + boosted; norm > 0 {
						sum += boosted / norm
					}
				}
				mb.Val[k] = sum / quadraturePoints
			}
		}
	})

	if opts.DisableMask {
		cliqueRankUnmasked(rg, mt, mb, opts, p)
	} else {
		// Ping-pong the power chain through two scratch iterates (M_b and
		// M_t stay read-only, so the DisableBonus aliasing mb == mt is
		// safe). Per-slot accumulation is element-wise, hence order-free.
		acc := &matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
		copy(acc.Val, mb.Val)
		cur := &matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
		next := &matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
		a := mb
		var addSrc []float64
		addIn := func(lo, hi int) {
			for k := lo; k < hi; k++ {
				acc.Val[k] += addSrc[k]
			}
		}
		// The masked product runs through a MaskPlan: the per-slot merges
		// and the dead rows are resolved once, and every step is then a
		// branch-free gather — bit-identical to the transpose+merge kernel
		// (the plan skips only terms that are exactly +0). One closure is
		// hoisted over the whole loop; a and next are rebound per step.
		var plan *matrix.MaskPlan
		if opts.Steps >= 2 {
			plan = matrix.BuildMaskPlan(mt, workers, 0)
		}
		if plan != nil {
			mulRange := func(lo, hi int) { plan.MulRangeInto(next, mt, a, lo, hi) }
			planGrain := plan.Grain()
			for step := 2; step <= opts.Steps; step++ {
				// One poll per matrix power: each masked product is the
				// expensive unit of work, so a canceled run gives up at
				// most one power of latency.
				if opts.Check.Err() != nil {
					break
				}
				parallel.ForGrain(workers, nnz, planGrain, mulRange)
				addSrc = next.Val
				parallel.ForGrain(workers, nnz, addGrain, addIn)
				a = next
				next, cur = cur, next
			}
			plan.Release()
		} else {
			// Fallback when the plan would exceed its memory ceiling: the
			// original transpose + merge product, same bits.
			at := &matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
			for step := 2; step <= opts.Steps; step++ {
				if opts.Check.Err() != nil {
					break
				}
				a.TransposeInto(at)
				matrix.MaskedMulInto(next, mt, at, workers)
				addSrc = next.Val
				parallel.ForGrain(workers, nnz, addGrain, addIn)
				a = next
				next, cur = cur, next
			}
			ar.putF64(at.Val)
		}
		probsFromPatternInto(rg, p, workers, func(slotIJ, slotJI int32) float64 {
			return (clamp01(acc.Val[slotIJ]) + clamp01(acc.Val[slotJI])) / 2
		})
		ar.putF64(acc.Val)
		ar.putF64(cur.Val)
		ar.putF64(next.Val)
	}

	ar.putF64(w.Val)
	ar.putF64(rowSum)
	ar.putF64(mt.Val)
	if mb != mt {
		ar.putF64(mb.Val)
	}
}

// clamp01 caps a per-direction step-sum at 1. Σ_k Mᵏ[i,j] approximates the
// probability of reaching j within S steps (it sums exactly-k arrival
// probabilities without first-arrival exclusion, so it can exceed 1); each
// direction must be a probability BEFORE the bidirectional average of
// Eq. 15, exactly as RSS averages two success frequencies — otherwise one
// saturated direction would defeat the "bi-directional walks depress
// one-sided corner cases" property of §VI-B.
func clamp01(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < 0 {
		return 0
	}
	return v
}

// cliqueRankUnmasked is the ablation path (DisableMask): the iterates are
// not confined to the adjacency pattern, so the chain is computed with
// dense products — the O(S·n³) formulation the paper starts from.
func cliqueRankUnmasked(rg *RecordGraph, mt, mb *matrix.PatVec, opts Options, p []float64) {
	mtD := mt.ToDense()
	a := mb.ToDense()
	acc := a.Clone()
	for step := 2; step <= opts.Steps; step++ {
		if opts.Check.Err() != nil {
			break
		}
		a = mtD.Mul(a)
		acc = acc.Add(a)
	}
	probsFromPatternInto(rg, p, opts.Workers, func(slotIJ, slotJI int32) float64 {
		i, j := slotCoords(rg, slotIJ)
		return (clamp01(acc.At(i, j)) + clamp01(acc.At(j, i))) / 2
	})
}

// probsFromPatternInto assembles the per-pair probability slice from a
// function of the two directed slots of each kept edge: it zeroes p, then
// fills the kept pairs from read, fanning out over workers. The
// transposed slot comes from the pattern's precomputed permutation
// (Pattern.TSlot), so the readout performs no per-pair search.
func probsFromPatternInto(rg *RecordGraph, p []float64, workers int, read func(slotIJ, slotJI int32) float64) {
	// Each pair costs two clamped loads; 4096 pairs per chunk amortize the
	// handoff. The grain is a constant, so chunk sets stay worker-free.
	const readoutGrain = 4096
	parallel.ForGrain(workers, len(rg.PairSlot), readoutGrain, func(lo, hi int) {
		for pid := lo; pid < hi; pid++ {
			slot := rg.PairSlot[pid]
			if slot < 0 {
				p[pid] = 0
				continue
			}
			p[pid] = read(slot, rg.Pattern.TSlot(slot))
		}
	})
}

// slotCoords recovers the (row, col) coordinates of a directed slot via the
// record graph's precomputed slot→row index.
func slotCoords(rg *RecordGraph, slot int32) (int, int) {
	return int(rg.SlotRow[slot]), int(rg.Pattern.Col[slot])
}
