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
// on sparse graphs each step costs Σ_i deg(i)² sparse-dot operations
// instead of n³ (matrix.MaskPlan), while near-complete graphs, where the
// two counts meet, run dense (see selectChain). This replaces
// the Eigen-based dense products of the original implementation. The
// chain stops early once every step-sum has reached 1, which the clamp
// makes final (rankWork.saturated).
//
// The returned slice is aligned with the candidate pairs; dropped pairs get
// probability 0.
func CliqueRank(rg *RecordGraph, opts Options) []float64 {
	p := make([]float64, len(rg.PairSlot))
	CliqueRankInto(rg, opts, p)
	return p
}

// chainKernel names a kernel for the power chain M² … M^S. Every kernel
// produces the same bits; they differ in what they cost on a given shape
// of record graph (DESIGN §14).
type chainKernel int

const (
	// chainDense runs the chain on n×n row-major iterates (denseChain).
	chainDense chainKernel = iota
	// chainPlan gathers through a matrix.MaskPlan, and takes the merge
	// product when the plan would exceed matrix.MaskPlanMaxEntries.
	chainPlan
	// chainMerge is the transpose + matrix.MaskedMulInto product. The
	// selector reaches it only through chainPlan's ceiling.
	chainMerge
)

// selectChain picks the power-chain kernel for a record graph of n records
// and nnz directed slots: dense for at-least-half-complete graphs (nnz ≥
// ½·n(n−1)), the mask plan otherwise.
func selectChain(n, nnz int) chainKernel {
	if 2*nnz >= n*(n-1) {
		return chainDense
	}
	return chainPlan
}

// CliqueRankInto writes the CliqueRank probabilities into p (length
// len(rg.PairSlot)), overwriting every element, and draws all matrix
// scratch from the record graph's arena when it has one. The power-chain
// kernel is chosen by selectChain from the graph's shape. The row loops,
// the products, and the readout fan out over opts.Workers goroutines
// through the deterministic scheduler; every worker count and every
// kernel produces bit-identical probabilities.
func CliqueRankInto(rg *RecordGraph, opts Options, p []float64) {
	cliqueRank(rg, opts, p, selectChain(rg.Pattern.N, rg.Pattern.NNZ()))
}

// cliqueRank is CliqueRankInto with the power-chain kernel given. The
// DisableMask ablation ignores it and runs the unmasked dense chain.
func cliqueRank(rg *RecordGraph, opts Options, p []float64, kernel chainKernel) {
	ws := rg.arena.rankWork()
	ws.rank(rg, opts, p, kernel)
	ws.forget()
}

// rankWork is CliqueRank's workspace, one per arena: the PatVec headers of
// the row pass and the power chain, the dense chain, and the row, product,
// accumulation and readout kernels bound to it once, the way
// iterScratch.gatherFn is, so a call on a warm arena allocates nothing. It
// serves one call at a time, as its arena does; the kernels fan out over
// disjoint rows, slots or pairs and only read its fields.
type rankWork struct {
	ar    *arena
	rg    *RecordGraph
	opts  Options
	p     []float64
	boost bonusQuadrature
	// w, mt and boosted hold the row pass's powered weights, M_t and M_b;
	// mb is &boosted, or &mt under DisableBonus. acc sums M¹ … M^S.
	w, mt, boosted, acc matrix.PatVec
	mb                  *matrix.PatVec
	rowSum              []float64
	// The sparse chain: plan is the mask plan, a the previous power, next
	// the power being computed (one of iter, or mb at the first step), and
	// at the merge product's transpose.
	plan    *matrix.MaskPlan
	a, next *matrix.PatVec
	iter    [2]matrix.PatVec
	at      matrix.PatVec
	dense   denseChain
	// segs lists, as [lo, hi) pairs, the slot ranges the sparse chain
	// still computes, and base is the start of the one being computed.
	segs []int32
	base int
	// full runs every power of the chain, past saturation; only the tests
	// set it, to hold the saturation stop to the whole chain.
	full bool

	rowFn, mulFn, addFn, readFn func(lo, hi int)
}

// rankWork returns the arena's CliqueRank workspace, made on first use; a
// nil arena gets a fresh one per call.
func (a *arena) rankWork() *rankWork {
	if a != nil && a.work != nil {
		return a.work
	}
	ws := &rankWork{ar: a}
	ws.rowFn, ws.mulFn, ws.addFn, ws.readFn = ws.rows, ws.mulRange, ws.addNext, ws.readout
	if a != nil {
		a.work = ws
	}
	return ws
}

// forget drops the finished call's graph, options and buffers and keeps
// the bound kernels, so an arena in a pool pins no run's data.
func (ws *rankWork) forget() {
	*ws = rankWork{ar: ws.ar, dense: denseChain{rows: ws.dense.rows}, segs: ws.segs[:0],
		rowFn: ws.rowFn, mulFn: ws.mulFn, addFn: ws.addFn, readFn: ws.readFn}
}

// rank is cliqueRank on the workspace: the row pass, the power chain and
// the readout, with every buffer drawn from and returned to the arena.
func (ws *rankWork) rank(rg *RecordGraph, opts Options, p []float64, kernel chainKernel) {
	pat := rg.Pattern
	ar := ws.ar
	nnz := pat.NNZ()
	workers := opts.Workers
	ws.rg, ws.opts, ws.p = rg, opts, p

	// Per-row max-normalized powered weights w(i,j) = (s(i,j)/smax_i)^α and
	// their row sums, the transition matrix M_t of Eq. 11 (zero-sum rows
	// stay zero: isolated or zero-weight), and the boosted first-step matrix
	// M_b of Eq. 12, all in one parallel row pass (rows).
	ws.w = matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
	ws.rowSum = ar.getF64(pat.N)
	ws.mt = matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
	ws.mb = &ws.mt
	if !opts.DisableBonus {
		ws.boosted = matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
		ws.mb = &ws.boosted
		ws.boost = newBonusQuadrature(opts.Alpha)
	}
	// Grains are pure functions of the graph shape (never the worker
	// count), so the chunk sets — and with them the bits — are identical
	// for every Workers setting. The row pass costs ~deg(i) pow calls per
	// row, so the default Grain=256 rows is far too coarse for it.
	rowGrain := parallel.GrainFor(pat.N, nnz+pat.N, 512)
	parallel.ForGrain(workers, pat.N, rowGrain, ws.rowFn)

	// acc accumulates Σ_k Mᵏ slot by slot, starting from M¹ = M_b. M_b and
	// M_t stay read-only, so the DisableBonus aliasing mb == mt is safe.
	ws.acc = matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
	copy(ws.acc.Val, ws.mb.Val)
	if opts.Steps >= 2 {
		switch {
		case opts.DisableMask:
			ws.denseChain(false)
		case kernel == chainDense:
			ws.denseChain(true)
		case kernel == chainPlan || kernel == chainMerge:
			ws.sparseChain(kernel == chainMerge)
		}
	}
	// The readout: each pair costs two clamped loads; 4096 pairs per chunk
	// amortize the handoff. The grain is a constant, so chunk sets stay
	// worker-free.
	const readoutGrain = 4096
	parallel.ForGrain(workers, len(rg.PairSlot), readoutGrain, ws.readFn)

	ar.putF64(ws.acc.Val)
	ar.putF64(ws.w.Val)
	ar.putF64(ws.rowSum)
	ar.putF64(ws.mt.Val)
	if !opts.DisableBonus {
		ar.putF64(ws.boosted.Val)
	}
}

// rows is the row pass over rows [lo, hi). Each row writes only its own
// slots of w, mt and mb and its own rowSum entry, so the fan-out is
// race-free and bit-identical for any worker count.
func (ws *rankWork) rows(lo, hi int) {
	s, pat, opts := ws.rg.S, ws.rg.Pattern, &ws.opts
	w, mt, mb, rowSum := ws.w.Val, ws.mt.Val, ws.mb.Val, ws.rowSum
	for i := lo; i < hi; i++ {
		// One poll per row bounds post-cancellation work to a row per
		// worker; the torn matrices are discarded by RunFusion together
		// with the checkpoint's error.
		if opts.Check.Tick() != nil {
			return
		}
		_, vals := s.RowSlice(i)
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
			w[k] = math.Pow(s.Val[k]/smax, opts.Alpha)
			rowSum[i] += w[k]
		}
		if rowSum[i] == 0 {
			continue
		}
		for k := klo; k < khi; k++ {
			mt[k] = w[k] / rowSum[i]
		}
		if opts.DisableBonus {
			continue
		}
		for k := klo; k < khi; k++ {
			mb[k] = ws.boost.step(w[k], rowSum[i])
		}
	}
}

// readout writes the probabilities of pairs [lo, hi): 0 for a dropped
// pair, and Eq. 15's bidirectional average of the clamped step-sums for a
// kept one. The transposed slot comes from the pattern's precomputed
// permutation (Pattern.TSlot), so the readout performs no per-pair search.
func (ws *rankWork) readout(lo, hi int) {
	pairSlot, pat, acc, p := ws.rg.PairSlot, ws.rg.Pattern, ws.acc.Val, ws.p
	for pid := lo; pid < hi; pid++ {
		slot := pairSlot[pid]
		if slot < 0 {
			p[pid] = 0
			continue
		}
		p[pid] = (clamp01(acc[slot]) + clamp01(acc[pat.TSlot(slot)])) / 2
	}
}

// quadraturePoints is the number of midpoint samples of the bonus b.
const quadraturePoints = 8

// bonusQuadrature holds (1+b)^α at the midpoints b of quadraturePoints
// equal slices of (0, 1).
//
// On M_b: in RSS the bonus b ∈ (0,1) is redrawn at every step of every
// one of the M walks, so the per-walk boosted transition probability
// that the success frequency estimates is the expectation over b. The
// matrix analog is therefore E_b[p_b(i → j)], which we evaluate by
// midpoint quadrature: norm = rowSum_i − w(i,j) + (1+b)^α·w(i,j) per
// sample. (Sampling b once per entry instead would make weak-tied
// entries saturate at ≈1 whenever the single draw lands high — a
// false-positive generator RSS does not have.)
type bonusQuadrature [quadraturePoints]float64

func newBonusQuadrature(alpha float64) bonusQuadrature {
	var bq bonusQuadrature
	for q := range bq {
		b := (float64(q) + 0.5) / quadraturePoints
		bq[q] = math.Pow(1+b, alpha)
	}
	return bq
}

// step is the M_b entry of an edge with powered weight w in a row whose
// powered weights sum to rowSum.
func (bq bonusQuadrature) step(w, rowSum float64) float64 {
	var sum float64
	for _, bf := range bq {
		boosted := bf * w
		if norm := rowSum - w + boosted; norm > 0 {
			sum += boosted / norm
		}
	}
	return sum / quadraturePoints
}

// twoRecordProb is what CliqueRank gives the one edge of a two-record
// record graph whose weight s is finite and positive: s/smax = 1 exactly,
// so w = 1^α = 1, rowSum = 1 and M_t = 1; M_b is the bonus step at w =
// rowSum = 1, whose every sample is bf/bf (exactly 1 for a finite bf > 0);
// and M² onward is empty (two records share no neighbour). Both directions are equal, so p is
// the clamped M_b entry — 1.0 at any usable α. The fusion loop uses it to
// rank two-record components without building their record graph;
// TestCliqueRankKernelsBitIdentical pins it against the kernels.
func twoRecordProb(opts Options) float64 {
	mb := 1.0
	if !opts.DisableBonus {
		bq := newBonusQuadrature(opts.Alpha)
		mb = bq.step(1, 1)
	}
	return (clamp01(mb) + clamp01(mb)) / 2
}

// sparseChain adds M² … M^S into acc on the pattern: through a MaskPlan,
// or through the transpose + merge product when merge is set or the plan
// would exceed its memory ceiling. Both compute the same bits.
func (ws *rankWork) sparseChain(merge bool) {
	pat, ar, opts := ws.mt.P, ws.ar, &ws.opts
	nnz := pat.NNZ()
	workers := opts.Workers
	// Ping-pong the power chain through two scratch iterates. Per-slot
	// accumulation is element-wise, hence order-free; one add per slot
	// makes the default grain far too fine.
	const addGrain = 8192
	ws.iter[0] = matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
	ws.iter[1] = matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
	ws.a, ws.next = ws.mb, &ws.iter[0]
	spare := &ws.iter[1]
	// The masked product runs through a MaskPlan: the per-slot merges
	// and the dead rows are resolved once, and every step is then a
	// branch-free gather — bit-identical to the transpose+merge kernel
	// (the plan skips only terms that are exactly +0). A graph held by a
	// fusion run keeps its plan across rounds (RecordGraph.maskPlan).
	held := false
	if !merge {
		ws.plan, held = ws.rg.maskPlan(&ws.mt, opts)
	}
	if ws.plan == nil {
		ws.at = matrix.PatVec{P: pat, Val: ar.getF64(nnz)}
	}
	// Through the plan, each component of the graph leaves the chain at
	// its own saturation: rows of different components never meet, so no
	// other component reads the slots it stops updating. The merge
	// product computes every slot, so it keeps the graph's one stop.
	ws.segs = ws.rg.segments(ws.segs[:0], ws.plan != nil)
	for step := 2; step <= opts.Steps; step++ {
		// One poll per matrix power: each masked product is the
		// expensive unit of work, so a canceled run gives up at most one
		// power of latency.
		if opts.Check.Err() != nil || !ws.live() {
			break
		}
		if ws.plan == nil {
			ws.a.TransposeInto(&ws.at)
			matrix.MaskedMulInto(ws.next, &ws.mt, &ws.at, workers)
		}
		for k := 0; k < len(ws.segs); k += 2 {
			lo, hi := int(ws.segs[k]), int(ws.segs[k+1])
			ws.base = lo
			if ws.plan != nil {
				parallel.ForGrain(workers, hi-lo, ws.plan.Grain(), ws.mulFn)
			}
			parallel.ForGrain(workers, hi-lo, addGrain, ws.addFn)
		}
		ws.a = ws.next
		ws.next, spare = spare, ws.next
	}
	if ws.plan == nil {
		ar.putF64(ws.at.Val)
	} else if !held {
		ws.plan.Release()
	}
	ar.putF64(ws.iter[0].Val)
	ar.putF64(ws.iter[1].Val)
}

// saturated reports whether every step-sum in acc has reached 1, so the
// chain can stop without changing a bit: every later power adds
// non-negative terms, and the readout clamps each direction at 1. A NaN
// counts as unsaturated. The scan stops at the first unsaturated slot.
func saturated(acc []float64) bool {
	for _, v := range acc {
		if !(v >= 1) {
			return false
		}
	}
	return true
}

// live drops from segs every slot range whose step-sums are saturated
// and reports whether any range remains; under full it drops none.
func (ws *rankWork) live() bool {
	if ws.full {
		return true
	}
	kept := ws.segs[:0]
	for k := 0; k < len(ws.segs); k += 2 {
		if lo, hi := ws.segs[k], ws.segs[k+1]; !saturated(ws.acc.Val[lo:hi]) {
			kept = append(kept, lo, hi)
		}
	}
	ws.segs = kept
	return len(kept) > 0
}

// mulRange computes slots [lo, hi) of the current range of the next power
// through the plan.
func (ws *rankWork) mulRange(lo, hi int) {
	ws.plan.MulRangeInto(ws.next, &ws.mt, ws.a, ws.base+lo, ws.base+hi)
}

// addNext adds slots [lo, hi) of the current range of the power just
// computed into acc.
func (ws *rankWork) addNext(lo, hi int) {
	lo, hi = ws.base+lo, ws.base+hi
	acc, src := ws.acc.Val[lo:hi], ws.next.Val[lo:hi]
	for k := range acc {
		acc[k] += src[k]
	}
}

// denseChain adds M² … M^S into acc through the workspace's denseChain;
// masked false is the DisableMask ablation, whose iterates are not
// confined to M_n.
func (ws *rankWork) denseChain(masked bool) {
	c := &ws.dense
	c.init(&ws.mt, ws.mb, &ws.acc, masked, ws.ar)
	for step := 2; step <= ws.opts.Steps; step++ {
		// One poll per matrix power, as in the sparse chain.
		if ws.opts.Check.Err() != nil || !ws.full && saturated(ws.acc.Val) {
			break
		}
		c.step(ws.opts.Workers)
	}
	c.release(ws.ar)
}

// denseChain is the power chain on n×n row-major iterates. Row i of Mᵏ is
// Σ_{k ∈ N(i)} M_t[i,k] · row k of Mᵏ⁻¹, accumulated in ascending k into
// every column at once (an i-k-j loop), then masked to N(i). Each entry is
// therefore summed in the plan's order: the plan's terms are the k in
// N(i) ∩ N(j) with a live row k, and every other k ∈ N(i) contributes
// M_t[i,k] · 0 = +0, which leaves a finite non-negative sum unchanged.
// Rows write disjoint slices of next and of acc, so the fan-out is
// bit-identical for any worker count.
type denseChain struct {
	pat     *matrix.Pattern
	mt, acc []float64 // by slot
	a, next []float64 // Mᵏ⁻¹ and Mᵏ, n×n row-major
	masked  bool
	grain   int
	rows    func(lo, hi int) // mulRows, bound on first init
}

// init expands M_b into the first dense iterate. The two n×n iterates come
// from the arena. At nnz ≥ ½·n(n−1) they are no larger than the five
// pattern-sized vectors the rank already holds from five records on, and
// at most 32 floats below.
func (c *denseChain) init(mt, mb, acc *matrix.PatVec, masked bool, ar *arena) {
	pat := mt.P
	n := pat.N
	c.pat, c.mt, c.acc, c.masked = pat, mt.Val, acc.Val, masked
	c.a, c.next = ar.getF64(n*n), ar.getF64(n*n)
	// A row costs up to n² multiply-adds, so the grain depends on n
	// alone: one chunk up to n = 32, one row per chunk from n ≈ 32.
	c.grain = parallel.GrainFor(n, n*n*n, 1<<15)
	//lint:ignore guardloop one nnz-sized scatter per chain, cheaper than the row pass before it; the chain polls the checkpoint per power
	for i := 0; i < n; i++ {
		row := c.a[i*n : (i+1)*n]
		for s := pat.RowPtr[i]; s < pat.RowPtr[i+1]; s++ {
			row[pat.Col[s]] = mb.Val[s]
		}
	}
	if c.rows == nil {
		c.rows = c.mulRows
	}
}

// step computes the next power and makes it the current one.
func (c *denseChain) step(workers int) {
	parallel.ForGrain(workers, c.pat.N, c.grain, c.rows)
	c.a, c.next = c.next, c.a
}

func (c *denseChain) release(ar *arena) {
	ar.putF64(c.a)
	ar.putF64(c.next)
	c.a, c.next = nil, nil
}

// mulRows writes rows [lo, hi) of the next power and adds their pattern
// entries into acc. Four rows of the previous power are folded in per pass
// over the output row (axpy4, vectorized on amd64 with AVX2), each with
// its own `+=` so that every entry still sees its terms one at a time in
// ascending k — the same sequence of `sum += x*y` the plan's gather
// performs.
func (c *denseChain) mulRows(lo, hi int) {
	pat, n := c.pat, c.pat.N
	a := c.a
	//lint:ignore guardloop one power step over a scheduler chunk of rows; rankWork.denseChain polls the checkpoint per power, as the sparse chain does
	for i := lo; i < hi; i++ {
		out := c.next[i*n : (i+1)*n]
		clear(out)
		rs, re := pat.RowPtr[i], pat.RowPtr[i+1]
		cols, m := pat.Col[rs:re], c.mt[rs:re]
		k := 0
		for ; k+4 <= len(cols); k += 4 {
			axpy4(out, a[int(cols[k])*n:], a[int(cols[k+1])*n:], a[int(cols[k+2])*n:], a[int(cols[k+3])*n:],
				m[k], m[k+1], m[k+2], m[k+3])
		}
		for ; k < len(cols); k++ {
			mk := m[k]
			b := a[int(cols[k])*n:][:len(out)]
			for j := range out {
				out[j] += mk * b[j]
			}
		}
		if c.masked {
			prev := int32(0)
			for _, j := range cols {
				clear(out[prev:j])
				prev = j + 1
			}
			clear(out[prev:])
		}
		acc := c.acc[rs:re]
		for s, j := range cols {
			acc[s] += out[j]
		}
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
