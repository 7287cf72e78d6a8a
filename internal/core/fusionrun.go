package core

import (
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/index"
)

// Scratch recycles the fusion loop's record-graph and rank-kernel arena
// across sequential fusion runs on the same goroutine, so a caller that
// resolves many jobs (or many competitor configurations of the same
// dataset) pays the buffer allocations once. The zero value is ready to
// use. A Scratch must not be shared between concurrent runs: the arena's
// free lists are unsynchronized by design (get/put happen on the fusion
// goroutine only).
//
// Sharing is safe across sequential runs because a finished run retains
// none of the arena's buffers: every record graph is released into the
// arena as soon as it is ranked.
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
	rankSmall  func(lo, hi int) // rankSmallShards, bound once by Partition
	pairP      float64          // twoRecordProb(opts)
	rounds     int
	round      int
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
	return &FusionRun{
		g:          g,
		numRecords: numRecords,
		opts:       opts,
		now:        now,
		start:      now(),
		rng:        rand.New(rand.NewSource(opts.Seed)),
		p:          p,
		res:        &FusionResult{Converged: true},
		sc:         &iterScratch{},
		ar:         ar,
		pairP:      twoRecordProb(opts),
		rounds:     rounds,
	}
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
// CliqueRank, or RSS under UseRSS. It returns the checkpoint's error when
// the run was canceled.
func (f *FusionRun) StepRank() (edges int, err error) {
	if f.shards != nil {
		return f.StepShardedRank()
	}
	f.res.Nodes = f.numRecords
	f.res.Edges = f.rankGraph(f.numRecords, nil, nil, f.ar, f.opts.Workers)
	if err := f.endRound(); err != nil {
		return 0, err
	}
	return f.res.Edges, nil
}

// rankGraph ranks one record graph of the round over n records: the graph
// of the candidate pairs listed in pairs, with recLocal renumbering their
// records into its nodes, or the whole candidate graph when both are nil.
// It builds the graph from the round's similarities, ranks it with the
// given worker budget, writes the pairs' probabilities into p and releases
// the graph into ar. A graph whose pairs all have similarity 0 is all
// dropped edges (p = 0), and a two-record graph takes CliqueRank's closed
// form; neither is built. It returns the kept-edge count.
func (f *FusionRun) rankGraph(n int, pairs, recLocal []int32, ar *arena, workers int) int {
	s := f.res.S
	m := len(s)
	if pairs != nil {
		m = len(pairs)
	}
	kept := 0
	for k := 0; k < m; k++ {
		if s[pairAt(pairs, k)] > 0 {
			kept++
		}
	}
	if kept == 0 || f.twoRecords(n) {
		for k := 0; k < m; k++ {
			pid := pairAt(pairs, k)
			f.p[pid] = f.twoRecordP(s[pid])
		}
		return kept
	}
	rg := buildRecordGraph(f.g, s, n, pairs, recLocal, ar)
	opts := f.opts
	opts.Workers = workers
	// The whole graph's positions are global pair IDs, so it ranks into p
	// directly; a component ranks into scratch and scatters.
	pl := f.p
	if pairs != nil {
		pl = ar.getF64(m)
	}
	if opts.UseRSS {
		RSSInto(rg, opts, pl)
	} else {
		CliqueRankInto(rg, opts, pl)
	}
	if pairs != nil {
		for k, pid := range pairs {
			f.p[pid] = pl[k]
		}
		ar.putF64(pl)
	}
	rg.release()
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
// thresholding, and the total elapsed time.
func (f *FusionRun) Finish() *FusionResult {
	res := f.res
	res.P = f.p
	res.Matches = make([]bool, len(f.p))
	for k, v := range f.p {
		res.Matches[k] = v >= f.opts.Eta
	}
	res.Elapsed = f.now().Sub(f.start)
	return res
}
