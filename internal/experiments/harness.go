package experiments

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/textproc"
)

// Bench is the experiment harness every table and figure runs through: a
// prepared snapshot of one replica (tokenized corpus + candidate graph,
// shared through Config.Cache), the ground truth to score against, and
// stage-level access to the whole-graph fusion loop. Baseline scorers run
// on Corpus and Graph and are scored by EvaluateScores; the fusion loop
// runs through Fusion, whose hook sets ablated core options or the
// per-round Progress observer.
type Bench struct {
	snap  *engine.Snapshot
	in    engine.PrepareInputs // what snap was built from, for its key
	key   engine.KeyMemo
	core  core.Options
	truth map[uint64]bool
}

// replica generates the named replica as an internal dataset, with the
// same zero-value defaults as er.ReplicaConfig (Seed 0 → 1, Scale ≤ 0 →
// 1).
func (c Config) replica(name DatasetName) (*dataset.Dataset, error) {
	gc := dataset.GenConfig{Seed: c.Seed, Scale: c.Scale}
	if gc.Seed == 0 {
		gc.Seed = 1
	}
	if gc.Scale <= 0 {
		gc.Scale = 1
	}
	switch name {
	case Restaurant:
		return dataset.GenRestaurant(gc), nil
	case Product:
		return dataset.GenProduct(gc), nil
	case Paper:
		return dataset.GenPaper(gc), nil
	}
	return nil, fmt.Errorf("%w: experiments: unknown dataset %q", er.ErrInvalidOptions, name)
}

// Bench prepares the engine snapshot for the named replica, serving it
// from Config.Cache when a previous Bench (or a previous call on the same
// config) already built it.
func (c Config) Bench(name DatasetName) (*Bench, error) {
	o := c.options()
	if err := o.Validate(); err != nil {
		return nil, err
	}
	ds, err := c.replica(name)
	if err != nil {
		return nil, err
	}
	run := engine.NewRun(context.Background(), engine.RunOptions{Workers: o.Workers})
	in := engine.PrepareInputs{
		Texts:    ds.Texts(),
		Sources:  ds.Sources(),
		Corpus:   benchCorpusOptions(o),
		Blocking: benchBlockingOptions(o, ds.NumSources > 1),
		MaxPairs: o.MaxCandidatePairs,
		Cache:    c.Cache,
	}
	snap, err := engine.Prepare(run, in)
	if err != nil {
		return nil, fmt.Errorf("experiments: prepare %s: %w", name, err)
	}
	b := &Bench{snap: snap, in: in, core: benchCoreOptions(o)}
	if ds.HasGroundTruth() {
		b.truth = ds.TrueMatches()
	}
	return b, nil
}

// The bench* option mappings mirror er.Options' unexported conversions.
// TestBenchSnapshotKeyMatchesPipeline pins them in sync: if either side
// drifts, the snapshot keys diverge and the test fails.

func benchCorpusOptions(o er.Options) textproc.CorpusOptions {
	return textproc.CorpusOptions{
		Tokenize:   textproc.DefaultTokenizeOptions(),
		MaxDFRatio: o.MaxDFRatio,
		Stopwords:  o.Stopwords,
	}
}

func benchBlockingOptions(o er.Options, multiSource bool) index.BatchOptions {
	return index.BatchOptions{
		CrossSourceOnly: multiSource,
		MaxTermRecords:  o.MaxTermRecords,
		MinSharedTerms:  o.MinSharedTerms,
		MinJaccard:      o.MinJaccard,
	}
}

// benchCoreOptions mirrors er.Options.coreOptions, so the harness fuses
// exactly as er.Resolve does (TestBenchFusionMatchesResolve pins it).
func benchCoreOptions(o er.Options) core.Options {
	c := core.DefaultOptions()
	c.Alpha = o.Alpha
	c.Steps = o.Steps
	c.Eta = o.Eta
	c.FusionIterations = o.FusionIterations
	c.UseRSS = o.UseRSS
	c.RSSWalks = o.RSSWalks
	if o.L2Normalization {
		c.Normalization = core.NormL2
	}
	c.Seed = o.Seed
	c.Workers = o.Workers
	c.Progress = o.Progress
	return c
}

// Graph returns the blocked candidate graph.
func (b *Bench) Graph() *index.Graph { return b.snap.Graph }

// Corpus returns the tokenized corpus.
func (b *Bench) Corpus() *textproc.Corpus { return b.snap.Corpus }

// SnapshotKey returns the snapshot's content key.
func (b *Bench) SnapshotKey() string {
	return b.key.Get(b.snap, func() engine.PrepareInputs { return b.in })
}

// CoreOptions returns a copy of the core option set the harness runs
// with.
func (b *Bench) CoreOptions() core.Options { return b.core }

// Fusion executes the fusion stages through the engine, optionally with
// modified core options (the ablation hook), returning the result and
// the per-stage trace (iter, cliquerank/rss, fuse).
func (b *Bench) Fusion(modify func(*core.Options)) (*core.FusionResult, engine.Trace, error) {
	opts := b.core
	if modify != nil {
		modify(&opts)
	}
	run := engine.NewRun(context.Background(), engine.RunOptions{Workers: opts.Workers})
	res, err := engine.Fuse(run, b.snap.Graph, b.snap.NumRecords(), opts)
	if err != nil {
		return nil, nil, err
	}
	return res, run.Trace(), nil
}

// FusionWeights returns the learned term weights of the unmodified fusion
// configuration.
func (b *Bench) FusionWeights() ([]float64, error) {
	res, _, err := b.Fusion(nil)
	if err != nil {
		return nil, err
	}
	return append([]float64(nil), res.X...), nil
}

// EvaluateMatches scores a boolean match assignment against ground truth;
// false without ground truth.
func (b *Bench) EvaluateMatches(matched []bool) (eval.PRF, bool) {
	if b.truth == nil {
		return eval.PRF{}, false
	}
	return eval.EvaluatePairs(b.snap.Graph.Pairs, matched, b.truth, len(b.truth)), true
}

// PageRankSalience returns the PageRank/TW-IDF term salience vector (the
// Table IV baseline weighting).
func (b *Bench) PageRankSalience() []float64 {
	_, salience := baselines.PageRankTWIDF(b.snap.Corpus, b.snap.Graph, baselines.DefaultPageRankOptions())
	return salience
}

// EvaluateScores applies the paper's automatic threshold protocol to a
// pair scoring (quantize [0, max] into 1000 thresholds, keep the best F1);
// false without ground truth.
func (b *Bench) EvaluateScores(scores []float64) (eval.PRF, bool) {
	if b.truth == nil {
		return eval.PRF{}, false
	}
	_, m := eval.BestThreshold(b.snap.Graph.Pairs, scores, b.truth, len(b.truth), 1000)
	return m, true
}

// BlockingRecall returns the fraction of true matches that survived
// blocking; false without ground truth.
func (b *Bench) BlockingRecall() (float64, bool) {
	return eval.BlockingRecall(b.snap.Graph, b.truth)
}

// TermWeightQuality computes Spearman's ρ between a weight vector and the
// score(t) oracle (the Table IV diagnostic); false without ground truth.
func (b *Bench) TermWeightQuality(weights []float64) (float64, bool) {
	return eval.TermWeightQuality(b.snap.Graph, b.truth, weights)
}

// TermScoreSeries returns the Figure 4 series for a weight vector:
// score(t) of terms ordered by descending weight; false without ground
// truth.
func (b *Bench) TermScoreSeries(weights []float64) ([]float64, bool) {
	if b.truth == nil {
		return nil, false
	}
	return eval.RankSeries(weights, eval.TermScores(b.snap.Graph, b.truth)), true
}
