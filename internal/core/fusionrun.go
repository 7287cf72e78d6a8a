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
// loop decomposed into its three per-round phases (ITER, record-graph
// construction, CliqueRank/RSS) so instrumented callers — the staged
// execution engine — can time and size each phase without duplicating the
// orchestration. The phase sequence and every cancellation poll sit
// exactly where RunFusion's monolithic loop had them, so driving
//
//	f := NewFusionRun(g, numRecords, opts)
//	for f.Next() {
//	    f.StepITER(); f.StepGraph(); f.StepRank()
//	}
//	res := f.Finish()
//
// is bit-identical to RunFusion (which is implemented this way).
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
		rounds:     rounds,
	}
}

// Next advances to the next fusion round, reporting false once all rounds
// have run. Each round must execute StepITER, StepGraph and StepRank in
// order before calling Next again.
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

// StepGraph rebuilds the record graph from the round's similarities,
// releasing the previous round's graph back into the arena. It returns
// the new graph's node and edge counts.
func (f *FusionRun) StepGraph() (nodes, edges int) {
	if f.res.Graph != nil {
		f.res.Graph.release()
	}
	f.res.Graph = buildRecordGraph(f.g, f.res.S, f.numRecords, f.ar)
	f.res.Nodes, f.res.Edges = f.res.Graph.NumNodes(), f.res.Graph.NumEdges()
	return f.res.Nodes, f.res.Edges
}

// StepRank runs CliqueRank (or RSS) on the round's record graph, writing
// the matching probabilities in place, sanitizing them, and invoking the
// Progress hook. It returns the checkpoint's error when the run was
// canceled.
func (f *FusionRun) StepRank() error {
	if f.opts.UseRSS {
		RSSInto(f.res.Graph, f.opts, f.p)
	} else {
		CliqueRankInto(f.res.Graph, f.opts, f.p)
	}
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
