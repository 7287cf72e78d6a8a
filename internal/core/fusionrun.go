package core

import (
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/index"
	"repro/internal/matrix"
)

// Scratch recycles the fusion loop's arena (ITER's layout, record graphs
// and rank-kernel buffers) across sequential fusion runs on the same
// goroutine, so a caller that resolves many jobs (or many competitor
// configurations of the same dataset) pays the buffer allocations once.
// The zero value is ready to use. A Scratch must not be shared between
// concurrent runs: the arena's free lists are unsynchronized by design
// (get/put happen on the fusion goroutine only).
//
// Sharing is safe across sequential runs because a finished run retains
// none of the arena's buffers: Finish returns ITER's layout and the
// arrays of the record graphs the run held.
type Scratch struct {
	ar arena
}

// FusionRun is the resumable form of RunFusion: the same reinforcement
// loop decomposed into its two per-round phases (ITER, then building and
// ranking G_r) so instrumented callers — the staged execution engine — can
// time and size each phase without duplicating the orchestration. Driving
//
//	f := NewFusionRun(g, numRecords, opts)
//	f.Partition() // optional: rank per component
//	for f.Next() {
//	    f.StepITER(); f.StepRank()
//	}
//	res := f.Finish()
//
// without Partition is RunFusion (which is implemented this way). With
// Partition, StepRank ranks each connected component on its own, which
// gives the same bits (see shard.go); engine.Fuse drives it that way.
//
// The run holds its record graphs — the whole graph, or after Partition
// one per big component and one block-diagonal batch per chunk of small
// ones — as windows of run-wide arrays (graphLayout) from the first rank
// to Finish. Blocking fixes the candidate pairs, so a later round only
// reweights a graph (RecordGraph.reweight), and lays it out again in its
// windows only where the kept-edge set changed; each graph's mask plan is
// held with it (RecordGraph.maskPlan).
type FusionRun struct {
	g          *index.Graph
	numRecords int
	opts       Options
	now        clock.Func
	start      time.Time
	rng        *rand.Rand
	p          []float64
	res        *FusionResult
	sc         *iterScratch
	ar         *arena
	shards     *shardSet
	graphs     *graphLayout     // the held record graphs: the whole one, or the shards'
	rankSmall  func(lo, hi int) // rankChunks, bound once by Partition
	pairP      float64          // twoRecordProb(opts)
	rounds     int
	round      int
	// planBudget is the count of mask-plan entries the run's held graphs
	// may still hold, matrix.MaskPlanMaxEntries in all.
	planBudget atomic.Int64
}

// NewFusionRun prepares a fusion run: p ← 1 for every pair, the seeded
// RNG, and the working scratch (taken from opts.Scratch when set). A zero
// opts.Seed is normalized to 1 and FusionIterations below 1 to a single
// round, as in RunFusion.
func NewFusionRun(g *index.Graph, numRecords int, opts Options) *FusionRun {
	now := clock.OrSystem(opts.Clock)
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	p := make([]float64, g.NumPairs())
	for k := range p {
		p[k] = 1
	}
	rounds := opts.FusionIterations
	if rounds < 1 {
		rounds = 1
	}
	ar := &arena{}
	if opts.Scratch != nil {
		ar = &opts.Scratch.ar
	}
	f := &FusionRun{
		g:          g,
		numRecords: numRecords,
		opts:       opts,
		now:        now,
		start:      now(),
		rng:        rand.New(rand.NewSource(opts.Seed)),
		p:          p,
		res:        &FusionResult{Converged: true},
		sc:         &iterScratch{ar: ar},
		ar:         ar,
		pairP:      twoRecordProb(opts),
		rounds:     rounds,
	}
	f.planBudget.Store(matrix.MaskPlanMaxEntries)
	return f
}

// Next advances to the next fusion round, reporting false once all rounds
// have run. Each round must execute StepITER and then StepRank before
// calling Next again.
func (f *FusionRun) Next() bool {
	if f.round >= f.rounds {
		return false
	}
	f.round++
	return true
}

// StepITER runs the round's inner ITER loop and folds its output into the
// accumulating result (trace, convergence, sanitized X/S). It returns the
// number of inner iterations executed and the checkpoint's error when the
// run was canceled.
func (f *FusionRun) StepITER() (iterations int, err error) {
	if err := f.opts.Check.Err(); err != nil {
		return 0, err
	}
	iterRes := runITER(f.g, f.p, f.opts, f.rng, f.sc)
	if err := f.opts.Check.Err(); err != nil {
		return iterRes.Iterations, err
	}
	res := f.res
	res.X, res.S = iterRes.X, iterRes.S
	res.ITERTrace = append(res.ITERTrace, iterRes.Updates)
	res.ITERIterations = append(res.ITERIterations, iterRes.Iterations)
	res.Converged = res.Converged && iterRes.Converged
	res.NumericRepairs += sanitizeNonNegative(res.X)
	res.NumericRepairs += sanitizeNonNegative(res.S)
	return iterRes.Iterations, nil
}

// StepRank ranks the round's record graph, writing the matching
// probabilities into p in place, and returns its kept-edge count. After
// Partition it is StepShardedRank; otherwise it ranks the whole G_r with
// CliqueRank, or RSS under UseRSS. A two-record graph takes CliqueRank's
// closed form and is never laid out. It returns the checkpoint's error
// when the run was canceled.
func (f *FusionRun) StepRank() (edges int, err error) {
	if f.shards != nil {
		return f.StepShardedRank()
	}
	f.res.Nodes = f.numRecords
	if f.twoRecords(f.numRecords) {
		f.res.Edges = f.rankClosed(nil)
	} else {
		if f.graphs == nil {
			f.graphs = wholeLayout(f.g, f.numRecords, f.ar)
			f.holdPlans()
		}
		f.res.Edges = f.rankGraph(0, f.ar, f.opts.Workers)
	}
	if err := f.endRound(); err != nil {
		return 0, err
	}
	return f.res.Edges, nil
}

// holdPlans lets the run's record graphs hold mask plans against the
// run's budget.
func (f *FusionRun) holdPlans() {
	for u := range f.graphs.graphs {
		f.graphs.graphs[u].planBudget = &f.planBudget
	}
}

// rankGraph ranks record graph u of the run with the given worker budget
// and CliqueRank's scratch from ar, and writes its pairs' probabilities
// into p. The first rank lays the graph out from the round's
// similarities; a later one reweights it, or lays it out again in its
// windows when the kept-edge set changed. A graph whose pairs all have
// similarity 0 is all dropped edges (p = 0) and is not ranked. It returns
// the kept-edge count.
func (f *FusionRun) rankGraph(u int, ar *arena, workers int) int {
	rg, s := &f.graphs.graphs[u], f.res.S
	kept := 0
	for k := range rg.PairSlot {
		if s[pairAt(rg.pairs, k)] > 0 {
			kept++
		}
	}
	if kept == 0 {
		return f.rankClosed(rg.pairs)
	}
	if rg.lays == 0 || !rg.reweight(s) {
		rg.lay(s)
	}
	opts := f.opts
	opts.Workers = workers
	// The whole graph's positions are global pair IDs, so it ranks into p
	// directly; a graph over a pair list ranks into its output window and
	// scatters.
	out := f.p
	if rg.pairs != nil {
		out = f.graphs.outOf(u)
	}
	rg.arena = ar
	if opts.UseRSS {
		RSSInto(rg, opts, out)
	} else {
		CliqueRankInto(rg, opts, out)
	}
	rg.arena = nil
	for k, pid := range rg.pairs {
		f.p[pid] = out[k]
	}
	return kept
}

// rankClosed writes the two-record closed form's probability of every
// pair listed in pairs (every candidate pair when pairs is nil), 0 for a
// pair with similarity 0, and returns the kept-edge count.
func (f *FusionRun) rankClosed(pairs []int32) int {
	s, n, kept := f.res.S, len(f.res.S), 0
	if pairs != nil {
		n = len(pairs)
	}
	for k := 0; k < n; k++ {
		pid := pairAt(pairs, k)
		f.p[pid] = f.twoRecordP(s[pid])
		if s[pid] > 0 {
			kept++
		}
	}
	return kept
}

// pairAt is the global ID of the pair at position k of a pair list, where
// a nil list stands for every candidate pair in ID order.
func pairAt(pairs []int32, k int) int {
	if pairs == nil {
		return k
	}
	return int(pairs[k])
}

// twoRecords reports whether a record graph over n records is ranked by
// CliqueRank's two-record closed form (twoRecordProb). RSS samples walks
// and the DisableMask ablation lets them leave the edge, so both still
// build the graph.
func (f *FusionRun) twoRecords(n int) bool {
	return n == 2 && !f.opts.UseRSS && !f.opts.DisableMask
}

// twoRecordP is the closed-form probability of a pair with similarity s in
// a two-record graph: the pair is an edge exactly when s > 0, and s is
// finite because StepITER sanitizes S.
func (f *FusionRun) twoRecordP(s float64) float64 {
	if s > 0 {
		return f.pairP
	}
	return 0
}

// endRound closes a rank step: it polls the checkpoint, sanitizes p and
// invokes the Progress hook.
func (f *FusionRun) endRound() error {
	if err := f.opts.Check.Err(); err != nil {
		return err
	}
	f.res.NumericRepairs += sanitizeProbabilities(f.p)
	if f.opts.Progress != nil {
		f.opts.Progress(f.round, f.res.S, f.p, f.now().Sub(f.start))
	}
	return nil
}

// Finish seals and returns the result: final probabilities, the η
// thresholding, and the total elapsed time. It returns ITER's layout and
// the record graphs' arrays to the run's arena, and the graphs' held
// plans to the plan pool and the run's budget.
func (f *FusionRun) Finish() *FusionResult {
	f.sc.release()
	if f.graphs != nil {
		f.graphs.release(f.ar)
		f.graphs = nil
	}
	res := f.res
	res.P = f.p
	res.Matches = make([]bool, len(f.p))
	for k, v := range f.p {
		res.Matches[k] = v >= f.opts.Eta
	}
	res.Elapsed = f.now().Sub(f.start)
	return res
}
