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
// Sharing is safe across sequential runs because the buffers a finished
// run retains — the final round's RecordGraph — are taken out of the free
// lists when handed out and only re-enter them through an explicit
// release, which the fusion loop performs solely on superseded per-round
// graphs.
type Scratch struct {
	ar arena
}

// FusionRun is the resumable form of RunFusion: the same reinforcement
// loop decomposed into its two per-round phases (ITER, then building and
// ranking G_r) so instrumented callers — the staged execution engine — can
// time and size each phase without duplicating the orchestration. Driving
//
//	f := NewFusionRun(g, numRecords, opts)
//	if opts.ShardComponents {
//	    f.Partition()
//	}
//	for f.Next() {
//	    f.StepITER(); f.StepRank()
//	}
//	res := f.Finish()
//
// is RunFusion (which is implemented this way). Whether the rank phase
// runs per component or on the whole graph is decided in StepRank alone.
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
// Partition it is StepShardedRank; otherwise it builds the whole G_r from
// the round's similarities, releasing the previous round's graph back into
// the arena, and ranks it with CliqueRank, or RSS under UseRSS. A
// two-record graph is ranked by CliqueRank's closed form and never built,
// leaving FusionResult.Graph nil. It returns the checkpoint's error when
// the run was canceled.
func (f *FusionRun) StepRank() (edges int, err error) {
	if f.shards != nil {
		return f.StepShardedRank()
	}
	res := f.res
	if res.Graph != nil {
		res.Graph.release()
		res.Graph = nil
	}
	if f.twoRecords(f.numRecords) {
		res.Nodes, res.Edges = f.numRecords, 0
		for pid, s := range res.S {
			f.p[pid] = f.twoRecordP(s)
			if s > 0 {
				res.Edges++
			}
		}
	} else {
		res.Graph = buildRecordGraph(f.g, res.S, f.numRecords, nil, nil, f.ar)
		res.Nodes, res.Edges = res.Graph.NumNodes(), res.Graph.NumEdges()
		if f.opts.UseRSS {
			RSSInto(res.Graph, f.opts, f.p)
		} else {
			CliqueRankInto(res.Graph, f.opts, f.p)
		}
	}
	if err := f.endRound(); err != nil {
		return 0, err
	}
	return res.Edges, nil
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
