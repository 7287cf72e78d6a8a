package core

import (
	"math"
	"math/rand"
	"sort"

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

// degreeBuckets is one side of ITER's layout: items (pairs, or active
// terms) grouped by the length of their lists, longest first, ties by
// ascending ID. Bucket b holds items start[b] to start[b+1]-1, each with a
// list of deg[b] entries; the lists lie contiguous in list, bucket after
// bucket, bucket b's from off[b]. The tables carry one sentinel entry.
type degreeBuckets struct {
	deg, start, off, list []int32
}

// find returns the bucket holding item i.
func (bk *degreeBuckets) find(i int) int {
	return sort.Search(len(bk.deg)-1, func(b int) bool { return int(bk.start[b+1]) > i })
}

// segment returns the run of bucket b's items from i, stopping at hi: the
// run's end, the bucket's list length and the run's lists.
func (bk *degreeBuckets) segment(b, i, hi int) (end, d int, lists []int32) {
	end = min(hi, int(bk.start[b+1]))
	d = int(bk.deg[b])
	at := int(bk.off[b]) + (i-int(bk.start[b]))*d
	return end, d, bk.list[at : at+(end-i)*d]
}

// order sorts items 0..n-1 into bk's buckets by degree, descending, with
// ties in ascending index (a stable counting sort), and fills bk's tables
// from tables. byPos[q] receives the item at position q and pos[i] the
// position of item i. hist must be zeroed and longer than every degree.
func (bk *degreeBuckets) order(n int, deg func(i int) int, hist, tables, byPos, pos []int32) {
	for i := 0; i < n; i++ {
		hist[deg(i)]++
	}
	nb := 0
	for _, c := range hist {
		if c > 0 {
			nb++
		}
	}
	bk.deg, bk.start, bk.off = tables[:nb+1], tables[nb+1:2*nb+2], tables[2*nb+2:3*nb+3]
	b, at, off := 0, int32(0), int32(0)
	for d := len(hist) - 1; d >= 0; d-- {
		c := hist[d]
		hist[d] = at
		if c == 0 {
			continue
		}
		bk.deg[b], bk.start[b], bk.off[b] = int32(d), at, off
		b++
		at += c
		off += c * int32(d)
	}
	bk.deg[nb], bk.start[nb], bk.off[nb] = 0, at, off
	for i := 0; i < n; i++ {
		q := hist[deg(i)]
		hist[deg(i)]++
		byPos[q], pos[i] = int32(i), q
	}
}

// iterLayout is ITER's view of one candidate graph: the pairs bucketed by
// term count and the active terms (P_t > 0) by pair count, so every inner
// loop of a sweep runs a trip count fixed for its bucket. Pairs and terms
// are numbered compactly in bucket order. A pair's list holds its terms'
// compact IDs in ascending term ID, as PairTerms does, and a term's list
// its pairs' compact IDs in ascending Key, as TermPairs does, so each sum
// adds the same values in the same order as the graph's own lists.
//
// Blocking fixes the graph for a whole fusion run, so the layout is built
// once per run. Every window lies in one int32 buffer, taken from the
// run's arena and returned to it when the run finishes.
type iterLayout struct {
	g            *index.Graph
	buf          []int32
	pairs, terms degreeBuckets
	// pairID maps a compact pair to its pair ID, act an active index to
	// its term ID and compact an active index to its compact term. Active
	// indexes ascend with term ID.
	pairID, act, compact []int32
}

// build lays out g. It makes one linear pass over g's lists.
func (l *iterLayout) build(g *index.Graph, ar *arena) {
	np, nt, refs := g.NumPairs(), g.NumTerms, len(g.PairTerms)
	pairDeg := func(pid int) int { return int(g.PairTermPtr[pid+1] - g.PairTermPtr[pid]) }
	maxPD, maxTD, na := 0, 0, 0
	for pid := 0; pid < np; pid++ {
		maxPD = max(maxPD, pairDeg(pid))
	}
	for _, pids := range g.TermPairs {
		if len(pids) > 0 {
			na++
			maxTD = max(maxTD, len(pids))
		}
	}
	// Bucket tables hold at most one entry per degree or per item, plus
	// the sentinel; the histograms, termAct, cOf and qOf serve the build
	// only.
	pt, tt := 3*(min(maxPD+1, np)+1), 3*(min(maxTD, na)+1)
	size := np + refs + pt + 2*na + refs + tt + (maxPD + 1) + (maxTD + 1) + na + nt + np
	buf := ar.getI32(size)
	l.g, l.buf = g, buf
	cut := func(n int) []int32 {
		w := buf[:n:n]
		buf = buf[n:]
		return w
	}
	var ptab, ttab []int32
	l.pairID, l.pairs.list, ptab = cut(np), cut(refs), cut(pt)
	l.act, l.compact, l.terms.list, ttab = cut(na), cut(na), cut(refs), cut(tt)
	phist, thist, termAct, cOf, qOf := cut(maxPD+1), cut(maxTD+1), cut(na), cut(nt), cut(np)
	clear(phist)
	clear(thist)

	k := 0
	for t, pids := range g.TermPairs {
		if len(pids) > 0 {
			l.act[k] = int32(t)
			k++
		}
	}
	l.pairs.order(np, pairDeg, phist, ptab, l.pairID, qOf)
	termDeg := func(k int) int { return len(g.TermPairs[l.act[k]]) }
	l.terms.order(na, termDeg, thist, ttab, termAct, l.compact)
	for k, c := range l.compact {
		cOf[l.act[k]] = c
	}
	w := 0
	//lint:ignore guardloop two copies of the graph's lists, once per fusion run; runITER polls the checkpoint before every sweep
	for _, k := range termAct {
		for _, pid := range g.TermPairs[l.act[k]] {
			l.terms.list[w] = qOf[pid]
			w++
		}
	}
	w = 0
	for _, pid := range l.pairID {
		for _, t := range g.PairTerms[g.PairTermPtr[pid]:g.PairTermPtr[pid+1]] {
			l.pairs.list[w] = cOf[t]
			w++
		}
	}
}

// iterScratch carries ITER's layout and working vectors across the fusion
// rounds of one run, so the reinforcement loop performs no steady-state
// allocation. The zero value is ready to use. The X/S slices of a result
// alias x and s and are only valid until the next runITER call on the
// same scratch. release returns the layout and the compact vectors to ar.
type iterScratch struct {
	// x and s are the result, indexed by term and pair ID.
	x, s []float64
	lay  iterLayout
	ar   *arena
	fbuf []float64
	// The compact vectors: xc holds the weights by compact term, xn the
	// next iteration's and dx each term's |Δx_t| (or, under NormL2, its
	// raw update); sc, ps and pc hold s, p·s and p by compact pair.
	xc, xn, dx, sc, ps, pc []float64
	// The call's settings, read by the sweeps.
	check     *guard.Checkpoint
	l2, noDen bool
	norm      float64
	// The sweeps, bound once per scratch, so a sweep hands the scheduler
	// no fresh closure.
	gatherFn, spreadFn, scaleFn func(lo, hi int)
	sumFn, squaresFn            func(lo, hi int) float64
}

// prepare readies the scratch for one call on g.
func (sc *iterScratch) prepare(g *index.Graph, opts Options) {
	if cap(sc.x) < g.NumTerms {
		sc.x = make([]float64, g.NumTerms)
	}
	sc.x = sc.x[:g.NumTerms]
	if cap(sc.s) < g.NumPairs() {
		sc.s = make([]float64, g.NumPairs())
	}
	sc.s = sc.s[:g.NumPairs()]
	if sc.lay.g != g {
		sc.release()
		sc.lay.build(g, sc.ar)
		na, np := len(sc.lay.act), g.NumPairs()
		sc.fbuf = sc.ar.getF64(3*na + 3*np)
		f := sc.fbuf
		sc.xc, sc.xn, sc.dx = f[:na], f[na:2*na], f[2*na:3*na]
		f = f[3*na:]
		sc.sc, sc.ps, sc.pc = f[:np], f[np:2*np], f[2*np:3*np]
	}
	if sc.gatherFn == nil {
		sc.gatherFn, sc.spreadFn, sc.scaleFn = sc.gather, sc.spread, sc.scale
		sc.sumFn, sc.squaresFn = sc.sumDX, sc.sumSquares
	}
	sc.check = opts.Check
	sc.l2 = opts.Normalization == NormL2
	sc.noDen = opts.DisableDenominator
}

// release returns the layout and the compact vectors to the arena.
func (sc *iterScratch) release() {
	sc.ar.putI32(sc.lay.buf)
	sc.ar.putF64(sc.fbuf)
	sc.lay = iterLayout{}
	sc.fbuf = nil
}

// gather is the term → pair sweep over compact pairs [lo, hi):
// s(ri,rj) = Σ x_t over the pair's terms, and p·s once for the pair →
// term sweep. Each pair writes only its own entries, so chunks fan out
// race-free. A bucket's pairs run two at a time, each sum adding its
// terms in ascending term ID, as a serial term-major scatter does:
// skipping x_t = 0 there is exact for non-negative weights, so the sweep
// is bit-identical to that scatter (TestITERBucketedMatchesScatter).
func (sc *iterScratch) gather(lo, hi int) {
	// One poll per chunk (≤ Grain pairs), none per pair: frequent enough
	// that a canceled run stops within a few thousand additions.
	if sc.check.Tick() != nil {
		return
	}
	bk, x, s, ps, p := &sc.lay.pairs, sc.xc, sc.sc, sc.ps, sc.pc
	for b := bk.find(lo); lo < hi; b++ {
		end, d, l := bk.segment(b, lo, hi)
		i := lo
		for ; i+1 < end; i += 2 {
			a, c := l[:d], l[d:2*d]
			c = c[:len(a)] // proves len(c) = len(a): no bounds check on c[k]
			l = l[2*d:]
			var s0, s1 float64
			for k := range a {
				s0 += x[a[k]]
				s1 += x[c[k]]
			}
			s[i], s[i+1] = s0, s1
			ps[i], ps[i+1] = p[i]*s0, p[i+1]*s1
		}
		if i < end {
			var s0 float64
			for _, t := range l {
				s0 += x[t]
			}
			s[i], ps[i] = s0, p[i]*s0
		}
		lo = end
	}
}

// spread is the pair → term sweep over compact terms [lo, hi): each term
// sums p·s over its pairs in ascending Key, two terms of a bucket at a
// time, and update takes the sum. Chunks write disjoint entries.
func (sc *iterScratch) spread(lo, hi int) {
	// Polled per chunk, like gather.
	if sc.check.Tick() != nil {
		return
	}
	bk, ps := &sc.lay.terms, sc.ps
	for b := bk.find(lo); lo < hi; b++ {
		end, d, l := bk.segment(b, lo, hi)
		i := lo
		for ; i+1 < end; i += 2 {
			a, c := l[:d], l[d:2*d]
			c = c[:len(a)]
			l = l[2*d:]
			var r0, r1 float64
			for k := range a {
				r0 += ps[a[k]]
				r1 += ps[c[k]]
			}
			sc.update(i, d, r0)
			sc.update(i+1, d, r1)
		}
		if i < end {
			var r0 float64
			for _, q := range l {
				r0 += ps[q]
			}
			sc.update(i, d, r0)
		}
		lo = end
	}
}

// update takes compact term c's sum over its d pairs: it applies the P_t
// punishment (d = P_t), then under NormBounded writes the next weight and
// |Δx_t|, and under NormL2 keeps the raw value for scale.
func (sc *iterScratch) update(c, d int, raw float64) {
	if !sc.noDen {
		//lint:ignore floatguard an active term has P_t = d ≥ 1 pairs
		raw /= float64(d)
	}
	if sc.l2 {
		sc.dx[c] = raw
		return
	}
	// The bounded map x = x/(1+x): the paper's 1/(1+1/x), written
	// division-safely.
	nx := raw / (1 + raw)
	sc.dx[c] = math.Abs(nx - sc.xc[c])
	sc.xn[c] = nx
}

// scale is NormL2's pass over compact terms [lo, hi): x = raw/‖raw‖₂,
// the alternative §V-C mentions.
func (sc *iterScratch) scale(lo, hi int) {
	for c := lo; c < hi; c++ {
		nx := 0.0
		if sc.norm > 0 {
			nx = sc.dx[c] / sc.norm
		}
		sc.dx[c] = math.Abs(nx - sc.xc[c])
		sc.xn[c] = nx
	}
}

// sumDX and sumSquares are the chunk partials of Σ|Δx_t| and Σ raw² over
// active indexes [lo, hi), so the sums fold in ascending term ID. The
// sweeps write dx in compact order, each chunk its own range: written by
// active index instead, both workers' writes would land on shared cache
// lines.
func (sc *iterScratch) sumDX(lo, hi int) float64 {
	var sum float64
	dx := sc.dx
	for _, c := range sc.lay.compact[lo:hi] {
		sum += dx[c]
	}
	return sum
}

func (sc *iterScratch) sumSquares(lo, hi int) float64 {
	var sum float64
	dx := sc.dx
	for _, c := range sc.lay.compact[lo:hi] {
		sum += dx[c] * dx[c]
	}
	return sum
}

// runITER executes Algorithm 1 on the bipartite term/pair graph. p is the
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
// goroutines through the deterministic chunked scheduler, and Σ|Δx_t|
// folds in ascending term ID in fixed chunks, so the output is
// bit-identical for every worker count. A canceled run returns the
// weights of its last complete iteration, and S matches them.
func runITER(g *index.Graph, p []float64, opts Options, rng *rand.Rand, sc *iterScratch) *ITERResult {
	if len(p) != g.NumPairs() {
		//lint:invariant alignment is established by RunFusion, the only production caller; tests assert on this panic
		panic("core: p must be aligned with candidate pairs")
	}
	sc.prepare(g, opts)
	lay := &sc.lay
	np, na := len(lay.pairID), len(lay.act)
	for q, pid := range lay.pairID {
		sc.pc[q] = p[pid]
	}
	// x_t is drawn in ascending term ID.
	for _, c := range lay.compact {
		sc.xc[c] = rng.Float64()
	}
	res := &ITERResult{}
	workers := opts.Workers
	for iter := 0; iter < opts.ITERMaxIters; iter++ {
		if opts.Check.Err() != nil {
			break
		}
		parallel.For(workers, np, sc.gatherFn)
		parallel.For(workers, na, sc.spreadFn)
		if sc.l2 {
			sc.norm = math.Sqrt(parallel.ReduceSum(workers, na, sc.squaresFn))
			parallel.For(workers, na, sc.scaleFn)
		}
		// ReduceSum folds chunk partials in ascending chunk order, so the
		// convergence series is a pure function of the input.
		delta := parallel.ReduceSum(workers, na, sc.sumFn)
		// A sweep cut short by cancellation leaves the iteration
		// incomplete: drop it, and the caller (RunFusion) surfaces the
		// checkpoint's error.
		if opts.Check.Err() != nil {
			break
		}
		sc.xc, sc.xn = sc.xn, sc.xc
		res.Updates = append(res.Updates, delta)
		res.Iterations = iter + 1
		if delta < opts.ITERTol {
			res.Converged = true
			break
		}
	}
	// Final term → pair sweep so S reflects the returned weights; it runs
	// to the end even on a canceled run.
	sc.check = nil
	parallel.For(workers, np, sc.gatherFn)
	clear(sc.x)
	for k, c := range lay.compact {
		sc.x[lay.act[k]] = sc.xc[c]
	}
	for q, pid := range lay.pairID {
		sc.s[pid] = sc.sc[q]
	}
	res.X, res.S = sc.x, sc.s
	return res
}
