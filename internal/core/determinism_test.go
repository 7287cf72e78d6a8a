package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/index"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// workerCounts are the settings the determinism suite compares: serial, a
// small fixed fan-out, and whatever the machine gives. The product-scale
// graph has thousands of pairs, so every loop spans many scheduler chunks.
func workerCounts() []int {
	counts := []int{1, 2, 4}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 && g != 4 {
		counts = append(counts, g)
	}
	return counts
}

func bitsEqual(t *testing.T, label string, want, got []float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("%s[%d]: %v (%#x) != %v (%#x)", label, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestITERBitIdenticalAcrossWorkers asserts the full ITER output — term
// weights, pair similarities, and the per-iteration convergence series — is
// bit-identical for every worker count, for both normalization schemes.
func TestITERBitIdenticalAcrossWorkers(t *testing.T) {
	_, g := productScaleGraph(t)
	p := onesP(g)
	for _, norm := range []Normalization{NormBounded, NormL2} {
		opts := DefaultOptions()
		opts.Normalization = norm
		opts.Workers = 1
		want := RunITER(g, p, opts, rand.New(rand.NewSource(3)))
		for _, w := range workerCounts()[1:] {
			opts.Workers = w
			got := RunITER(g, p, opts, rand.New(rand.NewSource(3)))
			bitsEqual(t, norm.String()+" X", want.X, got.X)
			bitsEqual(t, norm.String()+" S", want.S, got.S)
			bitsEqual(t, norm.String()+" Updates", want.Updates, got.Updates)
			if got.Iterations != want.Iterations || got.Converged != want.Converged {
				t.Fatalf("workers=%d: iterations %d/%v != %d/%v",
					w, got.Iterations, got.Converged, want.Iterations, want.Converged)
			}
		}
	}
}

// scatterITER is the reference for ITER's sweeps: the loop of Eq. 6–7
// with the serial term-major scatter for term → pair and each term's own
// TermPairs list for pair → term, under either normalization and with or
// without the P_t denominator. The convergence sum is folded as runITER
// folds it, so the two agree bit for bit only if the sweeps do.
func scatterITER(g *index.Graph, p []float64, opts Options, rng *rand.Rand) *ITERResult {
	x := make([]float64, g.NumTerms)
	var active []int32
	for t := range x {
		if g.Pt(t) > 0 {
			x[t] = rng.Float64()
			active = append(active, int32(t))
		}
	}
	s := make([]float64, g.NumPairs())
	scatter := func() {
		clear(s)
		for t, pairIDs := range g.TermPairs {
			if x[t] == 0 {
				continue
			}
			for _, pid := range pairIDs {
				s[pid] += x[t]
			}
		}
	}
	raw := make([]float64, len(active))
	fold := func(term func(k int) float64) float64 {
		return parallel.ReduceSum(1, len(active), func(lo, hi int) float64 {
			var d float64
			for k := lo; k < hi; k++ {
				d += term(k)
			}
			return d
		})
	}
	res := &ITERResult{X: x, S: s}
	for iter := 0; iter < opts.ITERMaxIters; iter++ {
		scatter()
		for k, t := range active {
			var acc float64
			for _, pid := range g.TermPairs[t] {
				acc += p[pid] * s[pid]
			}
			if !opts.DisableDenominator {
				acc /= float64(g.Pt(int(t)))
			}
			raw[k] = acc
		}
		next := func(k int) float64 { return raw[k] / (1 + raw[k]) }
		if opts.Normalization == NormL2 {
			norm := math.Sqrt(fold(func(k int) float64 { return raw[k] * raw[k] }))
			next = func(k int) float64 {
				if norm > 0 {
					return raw[k] / norm
				}
				return 0
			}
		}
		delta := fold(func(k int) float64 {
			nx := next(k)
			d := math.Abs(nx - x[active[k]])
			x[active[k]] = nx
			return d
		})
		res.Updates = append(res.Updates, delta)
		res.Iterations = iter + 1
		if delta < opts.ITERTol {
			res.Converged = true
			break
		}
	}
	scatter()
	return res
}

// iterEqual fails unless got is want bit for bit.
func iterEqual(t *testing.T, label string, want, got *ITERResult) {
	t.Helper()
	bitsEqual(t, label+" X", want.X, got.X)
	bitsEqual(t, label+" S", want.S, got.S)
	bitsEqual(t, label+" Updates", want.Updates, got.Updates)
	if got.Iterations != want.Iterations || got.Converged != want.Converged {
		t.Fatalf("%s: iterations %d/%v, want %d/%v",
			label, got.Iterations, got.Converged, want.Iterations, want.Converged)
	}
}

// skewedGraph is a random candidate graph shaped like a blocking graph's:
// pairs with 1–40 terms, a few hot terms in 200+ pairs, and unused terms.
func skewedGraph(rng *rand.Rand, records, pairs, terms int) *index.Graph {
	seen := map[uint64]bool{}
	var ps []index.Pair
	for len(ps) < pairs {
		i, j := int32(rng.Intn(records)), int32(rng.Intn(records))
		if i == j || seen[index.Key(min(i, j), max(i, j))] {
			continue
		}
		seen[index.Key(min(i, j), max(i, j))] = true
		ps = append(ps, index.Pair{I: min(i, j), J: max(i, j)})
	}
	lists := make([][]int32, pairs)
	for k := range lists {
		set := map[int32]bool{}
		for h := int32(0); h < 5; h++ {
			if rng.Float64() < 0.09 {
				set[h] = true
			}
		}
		for want := 1 + rng.Intn(40); len(set) < want; {
			// Squaring skews the draw toward low IDs; the top tenth of
			// the IDs stays unused.
			u := rng.Float64()
			set[int32(u*u*float64(terms)*0.9)] = true
		}
		for t := range set {
			lists[k] = append(lists[k], t)
		}
		slices.Sort(lists[k])
	}
	return index.NewGraph(records, terms, ps, lists)
}

// TestITERBucketedMatchesScatter asserts ITER over the degree-bucketed
// layout is bit-identical to the scatter reference at workers 1, 2 and 4:
// on the Product-scale graph and on a skewed random graph whose buckets
// include odd-sized ones (a bucket ending with an unpaired list), with
// p = 1 and with zeros in p, under NormL2, without the denominator, and
// capped by ITERMaxIters. A run canceled mid-sweep returns the weights of
// its last complete iteration.
func TestITERBucketedMatchesScatter(t *testing.T) {
	skewed := skewedGraph(rand.New(rand.NewSource(11)), 900, 3000, 1500)
	var sc iterScratch
	sc.prepare(skewed, DefaultOptions())
	for _, side := range []struct {
		name string
		bk   degreeBuckets
		max  int
	}{{"pair", sc.lay.pairs, 40}, {"term", sc.lay.terms, 200}} {
		odd, top := false, 0
		for b := 0; b+1 < len(side.bk.start); b++ {
			odd = odd || (side.bk.start[b+1]-side.bk.start[b])%2 == 1
			top = max(top, int(side.bk.deg[b]))
		}
		if !odd || top < side.max {
			t.Fatalf("%s buckets: odd-sized %v, longest list %d; want an odd bucket and a list of %d+",
				side.name, odd, top, side.max)
		}
	}

	// withZeros is p with a third of the pairs at 0 and the rest in [0, 1).
	withZeros := func(g *index.Graph) []float64 {
		p, rng := onesP(g), rand.New(rand.NewSource(12))
		for k := range p {
			if rng.Intn(3) == 0 {
				p[k] = 0
			} else {
				p[k] = rng.Float64()
			}
		}
		return p
	}
	_, product := productScaleGraph(t)
	for gi, g := range []*index.Graph{skewed, product} {
		cases := []struct {
			name string
			p    []float64
			set  func(*Options)
		}{
			{"bounded", onesP(g), func(*Options) {}},
			{"p-zeros", withZeros(g), func(*Options) {}},
			{"l2", withZeros(g), func(o *Options) { o.Normalization = NormL2 }},
			{"no-denominator", withZeros(g), func(o *Options) { o.DisableDenominator = true }},
			{"capped", onesP(g), func(o *Options) { o.ITERMaxIters = 3 }},
		}
		for _, tc := range cases {
			opts := DefaultOptions()
			tc.set(&opts)
			want := scatterITER(g, tc.p, opts, rand.New(rand.NewSource(5)))
			if tc.name == "capped" && want.Converged {
				t.Fatal("the capped case converged; it must stop at ITERMaxIters")
			}
			for _, w := range []int{1, 2, 4} {
				opts.Workers = w
				got := RunITER(g, tc.p, opts, rand.New(rand.NewSource(5)))
				iterEqual(t, fmt.Sprintf("graph %d %s workers=%d", gi, tc.name, w), want, got)
			}
		}
	}

	// Cancel a run that would never stop on its own: wherever the cancel
	// lands, the result is the reference run for that many iterations.
	p := withZeros(skewed)
	for _, w := range []int{1, 2} {
		opts := DefaultOptions()
		opts.Workers = w
		opts.ITERTol = -1
		opts.ITERMaxIters = math.MaxInt32
		done := make(chan struct{})
		opts.Check = guard.New(done, func() error { return context.Canceled })
		timer := time.AfterFunc(20*time.Millisecond, func() { close(done) })
		got := RunITER(skewed, p, opts, rand.New(rand.NewSource(5)))
		timer.Stop()
		if got.Converged || got.Iterations == opts.ITERMaxIters {
			t.Fatalf("workers=%d: the canceled run reports %d iterations, converged %v",
				w, got.Iterations, got.Converged)
		}
		t.Logf("workers=%d: canceled after %d complete iterations", w, got.Iterations)
		opts.Check, opts.ITERMaxIters = nil, got.Iterations
		want := scatterITER(skewed, p, opts, rand.New(rand.NewSource(5)))
		iterEqual(t, fmt.Sprintf("canceled workers=%d", w), want, got)
	}
}

// TestCliqueRankBitIdenticalAcrossWorkers covers the masked power chain and
// the quadrature bonus row pass.
func TestCliqueRankBitIdenticalAcrossWorkers(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	iter := RunITER(g, onesP(g), opts, rand.New(rand.NewSource(1)))
	rg := BuildRecordGraph(g, iter.S, g.NumRecords)
	opts.Workers = 1
	want := CliqueRank(rg, opts)
	for _, w := range workerCounts()[1:] {
		opts.Workers = w
		bitsEqual(t, "p", want, CliqueRank(rg, opts))
	}
}

// TestRSSBitIdenticalAcrossWorkers covers the per-edge seeded sampler.
func TestRSSBitIdenticalAcrossWorkers(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	opts.RSSWalks = 4
	opts.Steps = 5
	iter := RunITER(g, onesP(g), opts, rand.New(rand.NewSource(1)))
	rg := BuildRecordGraph(g, iter.S, g.NumRecords)
	opts.Workers = 1
	want := RSS(rg, opts)
	for _, w := range workerCounts()[1:] {
		opts.Workers = w
		bitsEqual(t, "p", want, RSS(rg, opts))
	}
}

// TestFusionBitIdenticalAcrossWorkers asserts the end-to-end reinforcement
// loop — with its buffer reuse, arena recycling, and in-place p rewrites —
// produces bit-identical similarities, probabilities and match decisions
// for every worker count.
func TestFusionBitIdenticalAcrossWorkers(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	opts.FusionIterations = 3
	opts.Workers = 1
	want, err := RunFusion(g, g.NumRecords, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts()[1:] {
		opts.Workers = w
		got, err := RunFusion(g, g.NumRecords, opts)
		if err != nil {
			t.Fatal(err)
		}
		bitsEqual(t, "X", want.X, got.X)
		bitsEqual(t, "S", want.S, got.S)
		bitsEqual(t, "P", want.P, got.P)
		for i := range want.Matches {
			if want.Matches[i] != got.Matches[i] {
				t.Fatalf("workers=%d: match[%d] %v != %v", w, i, got.Matches[i], want.Matches[i])
			}
		}
	}
}

// runSharded drives the fusion loop the way engine.Fuse does: partitioned
// once, then ranking each connected component on its own every round.
func runSharded(t *testing.T, g *index.Graph, numRecords int, opts Options) *FusionResult {
	t.Helper()
	f := NewFusionRun(g, numRecords, opts)
	f.Partition()
	for f.Next() {
		if _, err := f.StepITER(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.StepRank(); err != nil {
			t.Fatal(err)
		}
	}
	return f.Finish()
}

// TestShardedFusionBitIdenticalAcrossWorkers is the property test for
// component sharding: the per-component run must reproduce the whole-graph
// serial run — similarities, probabilities, match decisions, and the final
// record graph's size — to the last bit, for every worker count.
func TestShardedFusionBitIdenticalAcrossWorkers(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	opts.FusionIterations = 3
	opts.Workers = 1
	want, err := RunFusion(g, g.NumRecords, opts)
	if err != nil {
		t.Fatal(err)
	}
	rg := BuildRecordGraph(g, want.S, g.NumRecords)
	if want.Nodes != rg.NumNodes() || want.Edges != rg.NumEdges() {
		t.Fatalf("whole-graph aggregates %d/%d disagree with the final record graph %d/%d",
			want.Nodes, want.Edges, rg.NumNodes(), rg.NumEdges())
	}
	for _, w := range workerCounts() {
		opts.Workers = w
		got := runSharded(t, g, g.NumRecords, opts)
		if got.Nodes != want.Nodes || got.Edges != want.Edges {
			t.Fatalf("workers=%d: nodes/edges %d/%d, want %d/%d",
				w, got.Nodes, got.Edges, want.Nodes, want.Edges)
		}
		bitsEqual(t, "X", want.X, got.X)
		bitsEqual(t, "S", want.S, got.S)
		bitsEqual(t, "P", want.P, got.P)
		for i := range want.Matches {
			if want.Matches[i] != got.Matches[i] {
				t.Fatalf("workers=%d: match[%d] %v != %v", w, i, got.Matches[i], want.Matches[i])
			}
		}
	}
}

// TestFusionReuseMatchesSingleShot asserts the scratch/arena path RunFusion
// takes is bit-identical to composing the exported single-shot kernels by
// hand — the reuse must be invisible.
func TestFusionReuseMatchesSingleShot(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	opts.FusionIterations = 2
	opts.Workers = 2
	res, err := RunFusion(g, g.NumRecords, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	p := onesP(g)
	var iter *ITERResult
	for it := 0; it < 2; it++ {
		iter = RunITER(g, p, opts, rng)
		rg := BuildRecordGraph(g, iter.S, g.NumRecords)
		p = CliqueRank(rg, opts)
	}
	bitsEqual(t, "S", iter.S, res.S)
	bitsEqual(t, "P", p, res.P)
}

// shapeGraph builds the record graph of n records with exactly edges
// distinct pairs, drawn uniformly, and random weights in (0, 1].
func shapeGraph(rng *rand.Rand, n, edges int) *RecordGraph {
	var all []index.Pair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			all = append(all, index.Pair{I: int32(i), J: int32(j)})
		}
	}
	rng.Shuffle(len(all), func(a, b int) { all[a], all[b] = all[b], all[a] })
	pairs := all[:edges]
	s := make([]float64, edges)
	for k := range s {
		s[k] = 1 - rng.Float64()
	}
	return BuildRecordGraph(pairGraph(n, pairs), s, n)
}

// TestCliqueRankKernelsBitIdentical runs every power-chain kernel on the
// same record graphs: on both sides of the selector's half-density cut at
// 5, 17 and 40 records, on a two-record graph, on a sparse 16-record graph
// and on a 192-record, 98%-dense clique like the Paper replica's largest
// component. The dense chain, the mask plan and the merge product must
// give the same bits at every worker count, and so must the two-record
// closed form the fusion loop uses in place of any kernel.
func TestCliqueRankKernelsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	half := func(n int) int { return (n*(n-1) + 3) / 4 } // least edge count with nnz ≥ ½·n(n−1)
	for _, tc := range []struct {
		name  string
		n     int
		edges int
		steps int
		want  chainKernel
	}{
		{"pair", 2, 1, 20, chainDense},
		{"n5-below-half", 5, half(5) - 1, 20, chainPlan},
		{"n5-at-half", 5, half(5), 20, chainDense},
		{"n16-sparse", 16, 30, 20, chainPlan},
		{"n17-below-half", 17, half(17) - 1, 20, chainPlan},
		{"n17-at-half", 17, half(17), 20, chainDense},
		{"n40-below-half", 40, half(40) - 1, 20, chainPlan},
		{"n40-at-half", 40, half(40), 20, chainDense},
		{"n192-98pct", 192, 192 * 191 / 2 * 98 / 100, 4, chainDense},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rg := shapeGraph(rng, tc.n, tc.edges)
			if got := selectChain(rg.Pattern.N, rg.Pattern.NNZ()); got != tc.want {
				t.Fatalf("selectChain(%d, %d) = %d, want %d", rg.Pattern.N, rg.Pattern.NNZ(), got, tc.want)
			}
			kernels := []chainKernel{chainDense, chainMerge}
			for _, disableBonus := range []bool{false, true} {
				opts := DefaultOptions()
				opts.Steps = tc.steps
				opts.DisableBonus = disableBonus
				opts.Workers = 1
				want := make([]float64, len(rg.PairSlot))
				cliqueRank(rg, opts, want, chainPlan)
				for _, k := range kernels {
					for _, w := range []int{1, 2, 4} {
						opts.Workers = w
						got := make([]float64, len(rg.PairSlot))
						cliqueRank(rg, opts, got, k)
						bitsEqual(t, fmt.Sprintf("kernel %d, workers %d, no bonus %v", k, w, disableBonus), want, got)
					}
				}
			}
		})
	}

	// The closed form must reproduce the kernels' bits at every α — also
	// where a quadrature factor (1+b)^α overflows and the plan's M_b, and
	// with it p, is NaN.
	rg := shapeGraph(rng, 2, 1)
	for _, alpha := range []float64{20, 1, 0.25, 2000} {
		for _, disableBonus := range []bool{false, true} {
			opts := DefaultOptions()
			opts.Alpha = alpha
			opts.DisableBonus = disableBonus
			want := make([]float64, 1)
			cliqueRank(rg, opts, want, chainPlan)
			bitsEqual(t, fmt.Sprintf("closed form, α %g, no bonus %v", alpha, disableBonus), want, []float64{twoRecordProb(opts)})
		}
	}
}

// componentMix builds a candidate graph of pairs two-record components and
// triangles triangles (the dense kernel), followed by a 4-clique and two
// components on the mask-plan kernel: two triangles joined by a bridge on
// records base..base+5, and a 10-record ring with chords from every even
// record two ahead on records base+6..base+15. Every pair holds its
// component's term and a term of its own. It returns the graph and base.
func componentMix(pairs, triangles int) (*index.Graph, int32) {
	var edges []index.Pair
	var comp []int32
	next := int32(0)
	add := func(local [][2]int32, size int32) {
		c := int32(len(comp))
		if len(edges) > 0 {
			c = comp[len(comp)-1] + 1
		}
		for _, e := range local {
			edges = append(edges, index.Pair{I: next + e[0], J: next + e[1]})
			comp = append(comp, c)
		}
		next += size
	}
	for k := 0; k < pairs; k++ {
		add([][2]int32{{0, 1}}, 2)
	}
	for k := 0; k < triangles; k++ {
		add([][2]int32{{0, 1}, {0, 2}, {1, 2}}, 3)
	}
	add([][2]int32{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}, 4)
	base := next
	add([][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {3, 5}, {4, 5}}, 6)
	var ring [][2]int32
	for i := int32(0); i < 10; i++ {
		ring = append(ring, [2]int32{min(i, (i+1)%10), max(i, (i+1)%10)})
		if i%2 == 0 {
			ring = append(ring, [2]int32{min(i, (i+2)%10), max(i, (i+2)%10)})
		}
	}
	add(ring, 10)
	ncomps := comp[len(comp)-1] + 1
	terms := make([][]int32, len(edges))
	for k := range edges {
		terms[k] = []int32{comp[k], ncomps + int32(k)}
	}
	return index.NewGraph(int(next), int(ncomps)+len(edges), edges, terms), base
}

// heldGraphs lists the record graphs a fusion run holds, one per slot.
func heldGraphs(f *FusionRun) []*RecordGraph {
	if f.shards != nil {
		return slices.Clone(f.shards.graphs)
	}
	return []*RecordGraph{f.whole}
}

// transitionOf is M_t of a record graph at exponent alpha, computed as
// CliqueRank's row pass computes it.
func transitionOf(rg *RecordGraph, alpha float64) *matrix.PatVec {
	pat := rg.Pattern
	mt := matrix.NewPatVec(pat)
	for i := 0; i < pat.N; i++ {
		_, vals := rg.S.RowSlice(i)
		if len(vals) == 0 {
			continue
		}
		smax, sum := slices.Max(vals), 0.0
		for _, v := range vals {
			sum += math.Pow(v/smax, alpha)
		}
		for k := pat.RowPtr[i]; k < pat.RowPtr[i+1]; k++ {
			mt.Val[k] = math.Pow(rg.S.Val[k]/smax, alpha) / sum
		}
	}
	return mt
}

// samePlan fails unless two mask plans gather the same terms: equal entry
// counts and grains, and bit-identical products of operands that are
// non-zero in every slot, so a term kept by one plan and skipped by the
// other would show.
func samePlan(t *testing.T, label string, got, want *matrix.MaskPlan, pat *matrix.Pattern) {
	t.Helper()
	if got.Entries() != want.Entries() || got.Grain() != want.Grain() {
		t.Fatalf("%s: held plan has %d entries, grain %d; a fresh build %d, %d",
			label, got.Entries(), got.Grain(), want.Entries(), want.Grain())
	}
	rng := rand.New(rand.NewSource(7))
	mt, a := matrix.NewPatVec(pat), matrix.NewPatVec(pat)
	for k := range mt.Val {
		mt.Val[k], a.Val[k] = 1-rng.Float64(), 1-rng.Float64()
	}
	bitsEqual(t, label+" plan product", want.MulInto(matrix.NewPatVec(pat), mt, a, 1).Val,
		got.MulInto(matrix.NewPatVec(pat), mt, a, 1).Val)
}

// TestRankReuseMatchesRebuild pins the record graphs a fusion run holds
// across rounds. Round 2 drops edges (similarity forced to 0): one from
// the 4-clique, two that isolate a ring record, a two-record pair and a
// whole triangle. Round 3 brings them back, and round 4 changes no edge.
// Sharded and whole-graph, at every worker count, each round's
// probabilities must equal a fresh build and rank of the round's
// similarities bit for bit, every held mask plan must equal a fresh
// BuildMaskPlan of the graph's M_t, the graphs whose edges changed must be
// rebuilt and, in round 4, every graph reused. The held plans never
// overdraw the run's plan budget, also when it is cut to one entry and
// every plan must be built per rank, and Finish returns all of it.
func TestRankReuseMatchesRebuild(t *testing.T) {
	g, base := componentMix(3, 3)
	clique, tri := base-4, int32(9) // the 4-clique and the second triangle
	var dropped []int32
	for _, e := range [][2]int32{{clique, clique + 1}, {base + 6, base + 7}, {base + 7, base + 8}, {0, 1},
		{tri, tri + 1}, {tri, tri + 2}, {tri + 1, tri + 2}} {
		pid, ok := pairID(g, e[0], e[1])
		if !ok {
			t.Fatalf("no pair (%d, %d)", e[0], e[1])
		}
		dropped = append(dropped, pid)
	}
	ring, _ := pairID(g, base+6, base+7)
	for _, budget := range []int64{matrix.MaskPlanMaxEntries, 1} {
		for _, sharded := range []bool{true, false} {
			for _, w := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("budget %d sharded %v workers %d", budget, sharded, w), func(t *testing.T) {
					checkRankReuse(t, g, dropped, ring, budget, sharded, w)
				})
			}
		}
	}
}

// checkRankReuse runs one configuration of TestRankReuseMatchesRebuild.
func checkRankReuse(t *testing.T, g *index.Graph, dropped []int32, ring int32, budget int64, sharded bool, w int) {
	n := g.NumRecords
	opts := DefaultOptions()
	opts.FusionIterations = 4
	opts.Workers = w
	f := NewFusionRun(g, n, opts)
	f.planBudget.Store(budget)
	if sharded {
		f.Partition()
	}
	ringSlot := 0
	if sharded {
		ringSlot = len(f.shards.Comps) - 1
		if !slices.Contains(f.shards.Comps[ringSlot].Pairs, ring) {
			t.Fatal("the ring is not the last component")
		}
	}
	held := 0
	for f.Next() {
		if _, err := f.StepITER(); err != nil {
			t.Fatal(err)
		}
		for _, pid := range dropped {
			switch f.round {
			case 2:
				f.res.S[pid] = 0
			case 3:
				f.res.S[pid] = 0.5 + f.res.S[pid]
			}
		}
		s := slices.Clone(f.res.S)
		before := heldGraphs(f)
		if _, err := f.StepRank(); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("round %d", f.round)
		fresh := opts
		fresh.Workers = 1
		bitsEqual(t, label+" P", CliqueRank(BuildRecordGraph(g, s, n), fresh), f.p)

		after := heldGraphs(f)
		switch f.round {
		case 2, 3:
			if after[ringSlot] == before[ringSlot] {
				t.Fatalf("%s: the ring's edges changed, but its graph was not rebuilt", label)
			}
		case 4:
			for k := range after {
				if after[k] != before[k] {
					t.Fatalf("%s: slot %d rebuilt with no edge changed", label, k)
				}
			}
		}
		var entries int64
		for k, rg := range after {
			if rg == nil || rg.plan == nil {
				continue
			}
			held++
			entries += int64(rg.plan.Entries())
			want := matrix.BuildMaskPlan(transitionOf(rg, opts.Alpha), 1, 0)
			samePlan(t, fmt.Sprintf("%s slot %d", label, k), rg.plan, want, rg.Pattern)
			want.Release()
		}
		if entries > budget || f.planBudget.Load() != budget-entries {
			t.Fatalf("%s: held plans have %d entries, the budget %d left of %d",
				label, entries, f.planBudget.Load(), budget)
		}
	}
	if held == 0 && budget > 1 {
		t.Fatal("no slot held a mask plan")
	}
	f.Finish()
	if got := f.planBudget.Load(); got != budget {
		t.Fatalf("after Finish the plan budget is %d, want %d", got, budget)
	}
}

// cliqueRankFull is cliqueRank with every power of the chain computed, the
// reference the saturation stop is held to.
func cliqueRankFull(rg *RecordGraph, opts Options, p []float64, kernel chainKernel) {
	ws := rg.arena.rankWork()
	ws.full = true
	ws.rank(rg, opts, p, kernel)
	ws.forget()
}

// TestCliqueRankSaturationStopBitIdentical holds the chain's stop at
// saturation to a chain that runs every power: on cliques whose step-sums
// all pass 1 within a few steps, on graphs that never saturate, with and
// without the bonus and the mask, and at an α whose bonus overflows to
// NaN, every kernel must give the full chain's bits. It also checks that
// some case saturates before its last step, so the stop is exercised.
func TestCliqueRankSaturationStopBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	early := 0
	for _, tc := range []struct {
		name  string
		n     int
		edges int
		alpha float64
	}{
		{"pair", 2, 1, 20},
		{"clique5", 5, 10, 20},
		{"clique5-flat", 5, 10, 0.25},
		{"n12-dense", 12, 60, 1},
		{"n16-sparse", 16, 30, 20},
		{"n40-half", 40, 390, 20},
		{"clique8-overflow", 8, 28, 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rg := shapeGraph(rng, tc.n, tc.edges)
			for _, variant := range []struct {
				name                      string
				disableBonus, disableMask bool
			}{{"default", false, false}, {"no-bonus", true, false}, {"unmasked", false, true}} {
				opts := DefaultOptions()
				opts.Alpha = tc.alpha
				opts.DisableBonus = variant.disableBonus
				opts.DisableMask = variant.disableMask
				for _, k := range []chainKernel{chainDense, chainPlan, chainMerge} {
					for _, w := range []int{1, 2} {
						opts.Workers = w
						want := make([]float64, len(rg.PairSlot))
						got := make([]float64, len(rg.PairSlot))
						cliqueRankFull(rg, opts, want, k)
						cliqueRank(rg, opts, got, k)
						bitsEqual(t, fmt.Sprintf("%s, kernel %d, workers %d", variant.name, k, w), want, got)
					}
				}
				// The fewest powers whose full chain clamps every pair
				// at 1 in both directions: from there on acc is saturated.
				opts.Workers = 1
				p := make([]float64, len(rg.PairSlot))
				for steps := 1; steps < DefaultOptions().Steps; steps++ {
					opts.Steps = steps
					cliqueRankFull(rg, opts, p, chainPlan)
					if !slices.ContainsFunc(p, func(v float64) bool { return v != 1 }) {
						early++
						break
					}
				}
			}
		})
	}
	if early == 0 {
		t.Fatal("no case saturated before its last power; the stop is untested")
	}
}
