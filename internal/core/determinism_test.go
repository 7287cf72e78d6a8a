package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/index"
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

// scatterITER is the reference for ITER's term → pair sweep: runITER with
// the serial term-major scatter the per-pair gather replaced, for the
// default bounded normalization. The convergence sum is folded as
// runITER folds it, so the two agree bit for bit only if the sweeps do.
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
	res := &ITERResult{X: x, S: s}
	for iter := 0; iter < opts.ITERMaxIters; iter++ {
		scatter()
		for k, t := range active {
			var acc float64
			for _, pid := range g.TermPairs[t] {
				acc += p[pid] * s[pid]
			}
			raw[k] = acc / float64(g.Pt(int(t)))
		}
		delta := parallel.ReduceSum(1, len(active), func(lo, hi int) float64 {
			var d float64
			for k := lo; k < hi; k++ {
				nx := raw[k] / (1 + raw[k])
				d += math.Abs(nx - x[active[k]])
				x[active[k]] = nx
			}
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

// TestITERGatherMatchesScatter asserts ITER's per-pair gather over the
// pair→term transpose is bit-identical to the serial term-major scatter,
// serially and fanned out.
func TestITERGatherMatchesScatter(t *testing.T) {
	_, g := productScaleGraph(t)
	p := onesP(g)
	opts := DefaultOptions()
	want := scatterITER(g, p, opts, rand.New(rand.NewSource(5)))
	for _, w := range []int{1, 2} {
		opts.Workers = w
		got := RunITER(g, p, opts, rand.New(rand.NewSource(5)))
		bitsEqual(t, "X", want.X, got.X)
		bitsEqual(t, "S", want.S, got.S)
		bitsEqual(t, "Updates", want.Updates, got.Updates)
		if got.Converged != want.Converged {
			t.Fatalf("workers=%d: converged %v, scatter %v", w, got.Converged, want.Converged)
		}
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
