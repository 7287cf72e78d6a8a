package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/guard"
	"repro/internal/index"
)

// mustFusion runs RunFusion and fails the test on an unexpected error.
func mustFusion(t *testing.T, g *index.Graph, numRecords int, opts Options) *FusionResult {
	t.Helper()
	res, err := RunFusion(g, numRecords, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// fusionTexts: three duplicate pairs plus noise records. Duplicates share
// two discriminative terms; noise records attach to the cliques through
// mid-frequency terms (red/blue/metal/...). There is deliberately no global
// stop word: the paper's preprocessing removes terms that occur in nearly
// every record, and without that removal singleton records whose edges are
// all equal-weight can be boosted to p ≈ 1 by Eq. 12 (a property
// TestRunFusionStopWordDegeneracy documents explicitly).
// Matching records share four entity-specific terms, so a spurious edge
// (one or two shared common terms) weighs well under half of a matching
// edge — the regime the real benchmarks are in.
var fusionTexts = []string{
	"ax7f k100 alpha prime red metal",     // 0 \ entity A
	"ax7f k100 alpha prime blue metal",    // 1 /
	"bq9k m200 beta second red plastic",   // 2 \ entity B
	"bq9k m200 beta second green plastic", // 3 /
	"cz3m n300 gamma third blue wood",     // 4 \ entity C
	"cz3m n300 gamma third yellow wood",   // 5 /
	"delta red metal odd1",                // 6 noise
	"epsilon blue wood odd2",              // 7 noise
	"zeta green plastic odd3",             // 8 noise
}

func TestRunFusionEndToEnd(t *testing.T) {
	c, g := setup(fusionTexts...)
	_ = c
	opts := DefaultOptions()
	res := mustFusion(t, g, len(fusionTexts), opts)

	matchPairs := [][2]int32{{0, 1}, {2, 3}, {4, 5}}
	for _, mp := range matchPairs {
		id, ok := pairID(g, mp[0], mp[1])
		if !ok {
			t.Fatalf("pair %v not a candidate", mp)
		}
		if !res.Matches[id] {
			t.Errorf("duplicate pair %v not matched (p=%g)", mp, res.P[id])
		}
	}
	// No spurious matches: every flagged pair must be one of the three.
	for pid, matched := range res.Matches {
		if !matched {
			continue
		}
		p := g.Pairs[pid]
		ok := false
		for _, mp := range matchPairs {
			if p.I == mp[0] && p.J == mp[1] {
				ok = true
			}
		}
		if !ok {
			t.Errorf("spurious match (%d,%d) with p=%g", p.I, p.J, res.P[pid])
		}
	}
}

func TestRunFusionWithRSSBackend(t *testing.T) {
	_, g := setup(fusionTexts...)
	opts := DefaultOptions()
	opts.UseRSS = true
	opts.RSSWalks = 100
	opts.FusionIterations = 2
	res := mustFusion(t, g, len(fusionTexts), opts)
	id, _ := pairID(g, 0, 1)
	if !res.Matches[id] {
		t.Errorf("RSS backend missed duplicate pair, p=%g", res.P[id])
	}
}

func TestRunFusionProgressCallback(t *testing.T) {
	_, g := setup(fusionTexts...)
	opts := DefaultOptions()
	opts.FusionIterations = 3
	var iterations []int
	var lastElapsed time.Duration
	opts.Progress = func(it int, s, p []float64, elapsed time.Duration) {
		iterations = append(iterations, it)
		if len(s) != g.NumPairs() || len(p) != g.NumPairs() {
			t.Errorf("callback slices misaligned: %d/%d vs %d", len(s), len(p), g.NumPairs())
		}
		if elapsed < lastElapsed {
			t.Error("elapsed time must be monotone")
		}
		lastElapsed = elapsed
	}
	mustFusion(t, g, len(fusionTexts), opts)
	if len(iterations) != 3 || iterations[0] != 1 || iterations[2] != 3 {
		t.Errorf("callback iterations = %v, want [1 2 3]", iterations)
	}
}

func TestRunFusionTraceMatchesIterations(t *testing.T) {
	_, g := setup(fusionTexts...)
	opts := DefaultOptions()
	opts.FusionIterations = 4
	res := mustFusion(t, g, len(fusionTexts), opts)
	if len(res.ITERTrace) != 4 {
		t.Fatalf("trace has %d entries, want 4", len(res.ITERTrace))
	}
	for i, tr := range res.ITERTrace {
		if len(tr) == 0 {
			t.Errorf("fusion iteration %d recorded no ITER updates", i+1)
		}
	}
	rg := BuildRecordGraph(g, res.S, len(fusionTexts))
	if res.Nodes != len(fusionTexts) || res.Nodes != rg.NumNodes() || res.Edges != rg.NumEdges() {
		t.Errorf("final record graph size %d/%d, want %d/%d",
			res.Nodes, res.Edges, rg.NumNodes(), rg.NumEdges())
	}
	if res.Elapsed <= 0 {
		t.Error("elapsed must be positive")
	}
}

func TestRunFusionDeterministic(t *testing.T) {
	_, g := setup(fusionTexts...)
	a := mustFusion(t, g, len(fusionTexts), DefaultOptions())
	b := mustFusion(t, g, len(fusionTexts), DefaultOptions())
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatal("fusion must be deterministic under a fixed seed")
		}
	}
}

// TestRunFusionStopWordDegeneracy documents why the paper's preprocessing
// removes very frequent terms: when singleton records are connected only
// through a corpus-wide stop word, all their edges have equal weight and
// the Eq. 12 target bonus makes any pair of them mutually reachable with
// probability ≈ 1 — an unavoidable false positive for the walk model.
func TestRunFusionStopWordDegeneracy(t *testing.T) {
	texts := []string{
		"widget ax7f alpha",
		"widget ax7f alpha",
		"widget solo1 only1",
		"widget solo2 only2",
	}
	_, g := setup(texts...)
	res := mustFusion(t, g, len(texts), DefaultOptions())
	id, ok := pairID(g, 2, 3)
	if !ok {
		t.Fatal("stop-word pair must be a candidate")
	}
	if res.P[id] < 0.9 {
		t.Errorf("degenerate stop-word pair p = %g; expected ≈ 1 (this documents the failure mode the frequent-term filter prevents)", res.P[id])
	}
}

func TestRunFusionReinforcementSharpensSeparation(t *testing.T) {
	// Table V intuition: feeding p back into ITER should not degrade the
	// margin between matching and spurious pairs.
	_, g := setup(fusionTexts...)
	margin := func(iters int) float64 {
		opts := DefaultOptions()
		opts.FusionIterations = iters
		res := mustFusion(t, g, len(fusionTexts), opts)
		worstMatch, bestSpurious := 1.0, 0.0
		for pid, pair := range g.Pairs {
			isMatch := (pair.I == 0 && pair.J == 1) || (pair.I == 2 && pair.J == 3) || (pair.I == 4 && pair.J == 5)
			if isMatch && res.P[pid] < worstMatch {
				worstMatch = res.P[pid]
			}
			if !isMatch && res.P[pid] > bestSpurious {
				bestSpurious = res.P[pid]
			}
		}
		return worstMatch - bestSpurious
	}
	m1 := margin(1)
	m5 := margin(5)
	if m5 < m1-1e-9 {
		t.Errorf("margin after 5 fusion rounds (%g) worse than after 1 (%g)", m5, m1)
	}
}

func TestRunFusionCanceledCheckpoint(t *testing.T) {
	_, g := setup(fusionTexts...)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Check = guard.FromContext(ctx)
	res, err := RunFusion(g, len(fusionTexts), opts)
	if res != nil {
		t.Error("canceled fusion must not return a result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunFusionCancelMidRun(t *testing.T) {
	_, g := setup(fusionTexts...)
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions()
	opts.FusionIterations = 50
	opts.Check = guard.FromContext(ctx)
	fired := false
	opts.Progress = func(it int, s, p []float64, elapsed time.Duration) {
		if it == 2 && !fired {
			fired = true
			cancel()
		}
	}
	_, err := RunFusion(g, len(fusionTexts), opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancellation not surfaced: %v", err)
	}
}

func TestRunFusionReportsConvergence(t *testing.T) {
	_, g := setup(fusionTexts...)
	opts := DefaultOptions()
	res := mustFusion(t, g, len(fusionTexts), opts)
	if !res.Converged {
		t.Error("default tolerance on the crafted corpus must converge")
	}
	if len(res.ITERIterations) != opts.FusionIterations {
		t.Fatalf("ITERIterations has %d entries, want %d", len(res.ITERIterations), opts.FusionIterations)
	}
	for i, n := range res.ITERIterations {
		if n < 1 || n > opts.ITERMaxIters {
			t.Errorf("round %d used %d iterations, outside [1,%d]", i, n, opts.ITERMaxIters)
		}
		if n != len(res.ITERTrace[i]) {
			t.Errorf("round %d: iterations %d != trace length %d", i, n, len(res.ITERTrace[i]))
		}
	}

	// An impossible tolerance with a tiny cap must be reported as truncation,
	// not silently returned as if converged.
	opts.ITERTol = 0
	opts.ITERMaxIters = 2
	res = mustFusion(t, g, len(fusionTexts), opts)
	if res.Converged {
		t.Error("zero tolerance with a 2-iteration cap cannot converge")
	}
	for _, n := range res.ITERIterations {
		if n != 2 {
			t.Errorf("iterations-used = %d, want the cap 2", n)
		}
	}
}

func TestRunFusionZeroSeedEqualsSeedOne(t *testing.T) {
	_, g := setup(fusionTexts...)
	zero := DefaultOptions()
	zero.Seed = 0
	one := DefaultOptions()
	one.Seed = 1
	a := mustFusion(t, g, len(fusionTexts), zero)
	b := mustFusion(t, g, len(fusionTexts), one)
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatal("Seed 0 must behave exactly like the default seed 1")
		}
	}
}

func TestRunFusionOutputsFinite(t *testing.T) {
	_, g := setup(fusionTexts...)
	res := mustFusion(t, g, len(fusionTexts), DefaultOptions())
	for i, v := range res.P {
		if math.IsNaN(v) || v < 0 || v > 1 {
			t.Errorf("P[%d] = %g outside [0,1]", i, v)
		}
	}
	for i, v := range res.X {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("X[%d] = %g not finite", i, v)
		}
	}
	if res.NumericRepairs != 0 {
		t.Errorf("healthy corpus required %d numeric repairs", res.NumericRepairs)
	}
}

func TestSanitizeNonNegative(t *testing.T) {
	v := []float64{1, math.NaN(), math.Inf(1), math.Inf(-1), -3, 0.5}
	if n := sanitizeNonNegative(v); n != 4 {
		t.Errorf("repairs = %d, want 4", n)
	}
	want := []float64{1, 0, 0, 0, 0, 0.5}
	for i := range v {
		if v[i] != want[i] {
			t.Errorf("v[%d] = %g, want %g", i, v[i], want[i])
		}
	}
}

func TestSanitizeProbabilities(t *testing.T) {
	p := []float64{0.5, math.NaN(), 2, -0.1, math.Inf(1), math.Inf(-1), 1}
	if n := sanitizeProbabilities(p); n != 5 {
		t.Errorf("repairs = %d, want 5", n)
	}
	want := []float64{0.5, 0, 1, 0, 1, 0, 1}
	for i := range p {
		if p[i] != want[i] {
			t.Errorf("p[%d] = %g, want %g", i, p[i], want[i])
		}
	}
}
