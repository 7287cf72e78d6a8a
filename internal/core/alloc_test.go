//go:build !race

// The race detector instruments allocation and inflates AllocsPerRun, so
// this regression suite only runs in normal builds; the determinism suite
// covers the same code paths under -race.

package core

import (
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/matrix"
)

// TestFusionInnerLoopAllocs pins the steady-state allocation count of one
// reinforcement round — ITER with its reused scratch, the arena-backed
// record-graph build, and CliqueRank writing into a caller buffer. The
// pre-arena implementation allocated ~4300 times per round (fresh working
// vectors, per-row sort closures in the pattern build); the budget below is
// the measured ~42 with headroom, so a regression that reintroduces
// per-round buffer churn fails loudly.
func TestFusionInnerLoopAllocs(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	opts.Workers = 1
	sc := &iterScratch{}
	ar := &arena{}
	p := onesP(g)
	pbuf := make([]float64, g.NumPairs())
	rng := rand.New(rand.NewSource(1))
	round := func() {
		res := runITER(g, p, opts, rng, sc)
		rg := buildRecordGraph(g, res.S, g.NumRecords, nil, nil, ar)
		CliqueRankInto(rg, opts, pbuf)
		rg.release()
	}
	round() // warm the scratch and arena
	round()
	if got := testing.AllocsPerRun(5, round); got > 60 {
		t.Errorf("fusion round allocates %.0f times, budget 60", got)
	}
	// The arena getters scan their free lists for a fit; a warm get/put
	// round trip must not allocate at all.
	if got := testing.AllocsPerRun(5, func() {
		edges, kept, vals := ar.getEdges(g.NumPairs()), ar.getI32(g.NumPairs()), ar.getF64(g.NumPairs())
		ar.putF64(vals)
		ar.putI32(kept)
		ar.putEdges(edges)
	}); got > 0 {
		t.Errorf("warm arena get/put allocates %.0f times, want 0", got)
	}

	// The kernels alone must stay near-zero: the only per-call allocations
	// are the result struct, the Updates series, and a fixed set of closure
	// headers.
	if got := testing.AllocsPerRun(5, func() { runITER(g, p, opts, rng, sc) }); got > 40 {
		t.Errorf("runITER allocates %.0f times with warm scratch, budget 40", got)
	}
	res := runITER(g, p, opts, rng, sc)
	rg := buildRecordGraph(g, res.S, g.NumRecords, nil, nil, ar)
	defer rg.release()
	// The arena's float64 free list recycles CliqueRank's value vectors
	// without boxing them; the measured ~23 is the closure headers alone.
	if got := testing.AllocsPerRun(5, func() { CliqueRankInto(rg, opts, pbuf) }); got > 27 {
		t.Errorf("CliqueRankInto allocates %.0f times with warm arena, budget 27", got)
	}
	// Rows that are all-zero in mt (dead) take the plan build's dead-row
	// branch, which a CliqueRank run reaches only when canceled mid-pass;
	// a build over half-dead rows must not allocate per row either.
	pat := rg.Pattern
	halfDead := matrix.NewPatVec(pat)
	for i := 0; i < pat.N; i += 2 {
		for s := pat.RowPtr[i]; s < pat.RowPtr[i+1]; s++ {
			halfDead.Val[s] = 1
		}
	}
	if got := testing.AllocsPerRun(5, func() { matrix.BuildMaskPlan(halfDead, 1, 0).Release() }); got > 16 {
		t.Errorf("BuildMaskPlan over dead rows allocates %.0f times with warm pools, budget 16", got)
	}

	// The dense chain's power step — the masked i-k-j product and the slot
	// accumulation — allocates nothing, serially or fanned out: the row
	// kernel is bound once per chain and ForGrain's fan-out is pooled.
	_, clique := completeClique(64, func(i, j int) float64 { return 0.5 + float64((i+j)%7)/14 })
	acc := matrix.NewPatVec(clique.Pattern)
	chain := newDenseChain(clique.S, clique.S, acc, true, ar)
	defer chain.release(ar)
	for _, w := range []int{1, 2, 4} {
		chain.step(w)
		if got := testing.AllocsPerRun(5, func() { chain.step(w) }); got > 0 {
			t.Errorf("dense chain step at %d workers allocates %.0f times, want 0", w, got)
		}
	}
}

// TestTwoRecordRankAllocs pins the two-record closed form at zero
// allocations: a rank step over two-record components — sharded, and as
// the whole graph of one component the way the delta resolver fuses it —
// builds no record graph and runs no kernel.
func TestTwoRecordRankAllocs(t *testing.T) {
	opts := DefaultOptions()
	opts.FusionIterations = 1
	step := func(t *testing.T, f *FusionRun) {
		t.Helper()
		f.Next()
		if _, err := f.StepITER(); err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{1, 2} {
			f.opts.Workers = w
			if _, err := f.StepRank(); err != nil {
				t.Fatal(err)
			}
			if got := testing.AllocsPerRun(10, func() { f.StepRank() }); got > 0 {
				t.Errorf("rank step at %d workers allocates %.0f times, want 0", w, got)
			}
		}
		res := f.Finish()
		for pid, p := range res.P {
			if p != twoRecordProb(opts) || res.S[pid] <= 0 {
				t.Errorf("pair %d: s %g, p %g, want p %g", pid, res.S[pid], p, twoRecordProb(opts))
			}
		}
	}
	t.Run("sharded", func(t *testing.T) {
		// Four two-record components, one term each.
		pairs := []index.Pair{{I: 0, J: 1}, {I: 2, J: 3}, {I: 4, J: 5}, {I: 6, J: 7}}
		g := index.NewGraph(8, 4, pairs, [][]int32{{0}, {1}, {2}, {3}})
		f := NewFusionRun(g, 8, opts)
		if n := f.Partition(); n != 4 {
			t.Fatalf("%d components, want 4", n)
		}
		step(t, f)
	})
	t.Run("whole-graph", func(t *testing.T) {
		g := index.NewGraph(2, 1, []index.Pair{{I: 0, J: 1}}, [][]int32{{0}})
		step(t, NewFusionRun(g, 2, opts))
	})
}

// TestCliqueRankAllocsFlatAcrossWorkers pins the fix for the per-worker
// allocation growth the fixed-grain scheduler used to cause: the old fan-out
// spawned fresh goroutine closures per chunk, so CliqueRank's allocs_op
// climbed 40 → 200 → 280 going from 1 to 2 to 4 workers. With the pooled
// ForGrain jobs the fan-out itself is allocation-free, so the kernel's
// count must stay flat (within a small slack for pool misses) as workers
// grow.
func TestCliqueRankAllocsFlatAcrossWorkers(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	iter := RunITER(g, onesP(g), opts, rand.New(rand.NewSource(1)))
	ar := &arena{}
	rg := buildRecordGraph(g, iter.S, g.NumRecords, nil, nil, ar)
	defer rg.release()
	pbuf := make([]float64, g.NumPairs())

	measure := func(w int) float64 {
		opts.Workers = w
		CliqueRankInto(rg, opts, pbuf) // warm the arena and goroutine pools
		return testing.AllocsPerRun(5, func() { CliqueRankInto(rg, opts, pbuf) })
	}
	serial := measure(1)
	if serial > 27 {
		t.Errorf("workers=1: %.0f allocs, budget 27", serial)
	}
	for _, w := range []int{2, 4} {
		if got := measure(w); got > serial+10 {
			t.Errorf("workers=%d: %.0f allocs vs %.0f serial; fan-out must not allocate per worker",
				w, got, serial)
		}
	}
}

// TestCliqueRankFallbackAllocs pins the merge fallback (TransposeInto,
// MaskedMulInto, sparseDot) the way TestFusionInnerLoopAllocs pins the
// mask-plan path: with a warm arena, the plan kernel over a graph whose
// plan exceeds the ceiling allocates only its fixed set of closure headers,
// never per row, slot or merge term.
func TestCliqueRankFallbackAllocs(t *testing.T) {
	g, _ := fallbackClique(t)
	s := make([]float64, g.NumPairs())
	for pid := range s {
		s[pid] = 1
	}
	rg := buildRecordGraph(g, s, g.NumRecords, nil, nil, &arena{})
	defer rg.release()
	opts := DefaultOptions()
	opts.Workers = 1
	opts.Steps = 2
	pbuf := make([]float64, g.NumPairs())
	// AllocsPerRun's own warm-up call fills the arena; one measured call
	// keeps the 410-record merge pass affordable.
	if got := testing.AllocsPerRun(1, func() { cliqueRank(rg, opts, pbuf, chainPlan) }); got > 27 {
		t.Errorf("fallback CliqueRankInto allocates %.0f times with warm arena, budget 27", got)
	}
}

// TestITERAllocsFlatAcrossWorkers pins ITER's allocation count as workers
// grow, as TestCliqueRankAllocsFlatAcrossWorkers does for CliqueRank.
// Above one worker the term→pair gather and the convergence sum fan out;
// a gather closure built per sweep and a ReduceSum closure built per call
// each allocated once per inner iteration (11 allocs at one worker, 46 at
// two and four on this graph's 17 iterations). With both built once the
// count must stay flat. The gather is bound once per scratch, so it adds
// nothing at one worker either: 11 there is the budget.
func TestITERAllocsFlatAcrossWorkers(t *testing.T) {
	_, g := productScaleGraph(t)
	opts := DefaultOptions()
	p := onesP(g)
	sc := &iterScratch{}
	rng := rand.New(rand.NewSource(1))

	measure := func(w int) float64 {
		opts.Workers = w
		runITER(g, p, opts, rng, sc) // warm the scratch and goroutine pools
		return testing.AllocsPerRun(5, func() { runITER(g, p, opts, rng, sc) })
	}
	serial := measure(1)
	if serial > 11 {
		t.Errorf("workers=1: %.0f allocs, budget 11", serial)
	}
	for _, w := range []int{2, 4} {
		if got := measure(w); got > serial+10 {
			t.Errorf("workers=%d: %.0f allocs vs %.0f serial; the sweeps must not allocate per iteration",
				w, got, serial)
		}
	}
}
