package er

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/similarity"
	"repro/internal/textproc"
)

// Pipeline holds the tokenized corpus and candidate-pair structures for one
// dataset and exposes every scoring method of the paper's evaluation. All
// score slices returned by its methods are aligned: index k refers to
// candidate pair k.
type Pipeline struct {
	dataset     *Dataset
	opts        Options
	snap        *engine.Snapshot
	key         *engine.KeyMemo
	corpus      *textproc.Corpus
	graph       *index.Graph
	truth       map[uint64]bool
	degradation *DegradationReport
	buildTrace  engine.Trace
}

// DegradationReport describes how the pipeline degraded candidate
// generation to satisfy Options.MaxCandidatePairs: the original and final
// pair counts, the tightened blocking parameters, the pairs dropped by
// last-resort truncation, and a narration of each step. Degradation is
// lossy by design — tightened filters and truncation can drop true
// matches — so every step is recorded for the caller to audit.
type DegradationReport = engine.Degradation

// NewPipelineContext is the context-aware, error-returning constructor:
// it rejects invalid options (ErrInvalidOptions) and empty datasets
// (ErrNoRecords), honors ctx cancellation and the MaxWallClock budget
// during candidate generation, and applies the MaxCandidatePairs budget
// with graceful degradation (see DegradationReport).
func NewPipelineContext(ctx context.Context, d *Dataset, opts Options) (p *Pipeline, err error) {
	defer recoverToError(&err)
	if err := opts.Validate(); err != nil {
		return nil, err // Validate's errors wrap ErrInvalidOptions
	}
	if d == nil || d.NumRecords() == 0 {
		return nil, ErrNoRecords
	}
	ctx, cancel := opts.withWallClock(ctx)
	defer cancel()
	return buildPipelineRun(engine.NewRun(ctx, engine.RunOptions{Workers: opts.Workers}), ctx, d, opts)
}

// withWallClock derives the MaxWallClock budget context (a no-op cancel
// when the budget is disabled). The budget's expiry is distinguishable
// from a caller deadline via context.Cause, which carries
// ErrBudgetExceeded.
func (o Options) withWallClock(ctx context.Context) (context.Context, context.CancelFunc) {
	if o.MaxWallClock > 0 {
		return context.WithTimeoutCause(ctx, o.MaxWallClock, ErrBudgetExceeded)
	}
	return ctx, func() {}
}

// buildPipelineRun executes the pre-matching stages (tokenize, block with
// the MaxCandidatePairs degradation) on an engine run; ctx must already
// carry any wall-clock budget and opts must be validated. ResolveContext
// threads one run — and one trace — through construction, fusion,
// clustering and evaluation.
func buildPipelineRun(run *engine.Run, ctx context.Context, d *Dataset, opts Options) (*Pipeline, error) {
	snap, err := engine.Prepare(run, prepareInputs(d, opts))
	if err != nil {
		// Cancellation observed by the engine (directly or through a
		// failed blocking pass) maps to the run taxonomy; anything else is
		// an internal invariant violation.
		if ctxErr := run.Check().Err(); ctxErr != nil {
			return nil, wrapRunErr(ctx, ctxErr)
		}
		return nil, fmt.Errorf("%w: %v", ErrInternal, err)
	}
	p := &Pipeline{
		dataset:    d,
		opts:       opts,
		snap:       snap,
		key:        new(engine.KeyMemo),
		corpus:     snap.Corpus,
		graph:      snap.Graph,
		buildTrace: run.Trace(),
	}
	if snap.Degradation != nil {
		// The snapshot may live in a shared SnapshotCache: hand callers a
		// copy they can mutate without touching later runs' reports.
		deg := *snap.Degradation
		p.degradation = &deg
	}
	if d.HasGroundTruth() {
		p.truth = d.ds.TrueMatches()
	}
	return p, nil
}

// prepareInputs maps a dataset and options onto the pre-matching stages'
// inputs.
func prepareInputs(d *Dataset, opts Options) engine.PrepareInputs {
	return engine.PrepareInputs{
		Texts:   d.ds.Texts(),
		Sources: d.ds.Sources(),
		Corpus:  opts.corpusOptions(),
		Blocking: index.BatchOptions{
			CrossSourceOnly: d.ds.NumSources > 1,
			MaxTermRecords:  opts.MaxTermRecords,
			MinSharedTerms:  opts.MinSharedTerms,
			MinJaccard:      opts.MinJaccard,
		},
		MaxPairs: opts.MaxCandidatePairs,
		Cache:    opts.Snapshots.engineCache(),
	}
}

// Degradation returns the report of the MaxCandidatePairs budget
// degradation, or nil when the budget was disabled or never exceeded.
func (p *Pipeline) Degradation() *DegradationReport { return p.degradation }

// Trace returns the stage trace of the pipeline's construction: the
// tokenize and block stages with their wall times and sizes, flagged
// Cached when Options.Snapshots served them from a previous run. Each call
// returns a fresh copy.
func (p *Pipeline) Trace() Trace { return slices.Clone(p.buildTrace) }

// SnapshotKey returns the content key of the pipeline's pre-matching
// snapshot — a hash over the record texts, source labels, and every
// option that influences tokenization or blocking. Pipelines with equal
// keys share identical corpora and candidate graphs, which is the
// identity Options.Snapshots caches under.
func (p *Pipeline) SnapshotKey() string {
	return p.key.Get(p.snap, func() engine.PrepareInputs { return prepareInputs(p.dataset, p.opts) })
}

// CheckCandidates reports whether the pipeline has any work to do:
// ErrNoRecords for an empty dataset, ErrNoCandidates when no two records
// share a term (so nothing can ever match), nil otherwise. An empty
// candidate set is a valid input to every scoring method — this check
// exists for callers that want to surface the condition instead.
func (p *Pipeline) CheckCandidates() error {
	if p.dataset.NumRecords() == 0 {
		return ErrNoRecords
	}
	if p.graph.NumPairs() == 0 {
		return ErrNoCandidates
	}
	return nil
}

// wrapRunErr translates a cancellation observed by the internal layers into
// the library taxonomy: expiry of the MaxWallClock budget (identified via
// the context cause) wraps ErrBudgetExceeded alongside
// context.DeadlineExceeded; everything else wraps the context's own error
// (context.Canceled or context.DeadlineExceeded from the caller's context).
func wrapRunErr(ctx context.Context, err error) error {
	if cause := context.Cause(ctx); errors.Is(cause, ErrBudgetExceeded) {
		return fmt.Errorf("er: wall-clock budget exhausted: %w; %w", ErrBudgetExceeded, context.DeadlineExceeded)
	}
	return fmt.Errorf("er: resolution aborted: %w", err)
}

// NumCandidates returns the number of candidate pairs.
func (p *Pipeline) NumCandidates() int { return p.graph.NumPairs() }

// CandidatePair returns the record indexes of candidate pair k.
func (p *Pipeline) CandidatePair(k int) (int, int) {
	pair := p.graph.Pairs[k]
	return int(pair.I), int(pair.J)
}

// NumTerms returns the number of terms that survived pre-processing.
func (p *Pipeline) NumTerms() int { return p.corpus.NumTerms() }

// Term returns the surface form of term t.
func (p *Pipeline) Term(t int) string { return p.corpus.Terms[t] }

// Jaccard scores candidate pairs with token-set Jaccard similarity.
func (p *Pipeline) Jaccard() []float64 { return similarity.Jaccard(p.corpus, p.graph) }

// TFIDF scores candidate pairs with TF-IDF cosine similarity.
func (p *Pipeline) TFIDF() []float64 { return similarity.TFIDFCosine(p.corpus, p.graph) }

// SoftTFIDF scores candidate pairs with the Soft TF-IDF hybrid metric of
// Cohen et al. (token TF-IDF with Jaro-Winkler near-matching), an
// additional member of the §II-A distance family offered by the library.
func (p *Pipeline) SoftTFIDF() []float64 { return similarity.SoftTFIDFScores(p.corpus, p.graph) }

// MongeElkan scores candidate pairs with the symmetrized Monge-Elkan field
// match over surface tokens (Jaro-Winkler inner metric).
func (p *Pipeline) MongeElkan() []float64 { return similarity.MongeElkanScores(p.corpus, p.graph) }

// BiRank scores candidate pairs with TW-IDF weighting driven by BiRank
// term salience on the record-term bipartite graph (He et al., the paper's
// ref [28]) and also returns the salience vector.
func (p *Pipeline) BiRank() (scores, salience []float64) {
	return baselines.BiRankTWIDF(p.corpus, p.graph, baselines.DefaultBiRankOptions())
}

// SimRank scores candidate pairs with bipartite SimRank (Eq. 1-2).
func (p *Pipeline) SimRank() []float64 {
	return baselines.SimRank(p.corpus, p.graph, baselines.DefaultSimRankOptions())
}

// PageRank scores candidate pairs with the PageRank/TW-IDF baseline (Eq.
// 3-4) and also returns the PageRank term salience.
func (p *Pipeline) PageRank() (scores, salience []float64) {
	return baselines.PageRankTWIDF(p.corpus, p.graph, baselines.DefaultPageRankOptions())
}

// Hybrid scores candidate pairs with the β-weighted combination of SimRank
// and PageRank/TW-IDF (Eq. 5).
func (p *Pipeline) Hybrid(beta float64) []float64 {
	sb := p.SimRank()
	su, _ := p.PageRank()
	// Both inputs come from the same candidate graph, so the misalignment
	// error baselines.Hybrid guards against cannot occur here.
	out, err := baselines.Hybrid(sb, su, beta)
	if err != nil {
		//lint:invariant both score slices are aligned with p.graph.Pairs by construction
		panic(err)
	}
	return out
}

// FusionOutcome is the result of the full ITER+CliqueRank framework.
type FusionOutcome struct {
	// TermWeights is the learned discrimination power x_t per term.
	TermWeights []float64
	// Similarities is the learned pair similarity s per candidate pair.
	Similarities []float64
	// Probabilities is the matching probability p per candidate pair.
	Probabilities []float64
	// Matched flags candidate pairs with p >= η.
	Matched []bool
	// GraphNodes and GraphEdges are the Table III record-graph statistics.
	GraphNodes, GraphEdges int
	// ITERUpdateTrace concatenates the Σ|Δx_t| per inner ITER iteration
	// across fusion rounds (the Figure 5 series).
	ITERUpdateTrace [][]float64
	// Converged reports whether every inner ITER loop reached its update
	// tolerance before hitting the iteration cap; ITERIterations holds the
	// inner iteration count of each fusion round.
	Converged      bool
	ITERIterations []int
	// NumericRepairs counts non-finite or out-of-range values (NaN, ±Inf,
	// negative weights, probabilities outside [0,1]) that the numeric
	// guardrails replaced with their documented fallbacks; 0 on a healthy
	// run.
	NumericRepairs int
	// Trace records the fusion stages (partition unless UseRSS, iter,
	// cliquerank/rss, fuse) with per-stage wall times, sizes and iteration
	// counts.
	Trace Trace
	// Elapsed is the wall-clock time of the fusion loop.
	Elapsed time.Duration
}

// FusionContext runs the full unsupervised framework under ctx: the fusion
// loop polls for cancellation and returns an error wrapping the context's
// error (and ErrBudgetExceeded, if the MaxWallClock budget's deadline is
// the cause) instead of completing. MaxWallClock is applied here too, so
// staged callers (NewPipelineContext then FusionContext) get each stage
// bounded by the budget; under ResolveContext the outer whole-run timer
// still governs, because a derived context can never outlive its parent.
func (p *Pipeline) FusionContext(ctx context.Context) (*FusionOutcome, error) {
	ctx, cancel := p.opts.withWallClock(ctx)
	defer cancel()
	run := engine.NewRun(ctx, engine.RunOptions{Workers: p.opts.Workers})
	return p.fuseRun(ctx, run)
}

// fuseRun executes the fusion stages on an existing engine run; the
// outcome's Trace carries only the stages this call recorded, so a shared
// run (ResolveContext) keeps its earlier stages separate.
func (p *Pipeline) fuseRun(ctx context.Context, run *engine.Run) (*FusionOutcome, error) {
	before := run.Stages()
	res, err := engine.Fuse(run, p.graph, p.dataset.NumRecords(), p.opts.coreOptions())
	if err != nil {
		return nil, wrapRunErr(ctx, err)
	}
	return &FusionOutcome{
		TermWeights:     res.X,
		Similarities:    res.S,
		Probabilities:   res.P,
		Matched:         res.Matches,
		GraphNodes:      res.Nodes,
		GraphEdges:      res.Edges,
		ITERUpdateTrace: res.ITERTrace,
		Converged:       res.Converged,
		ITERIterations:  res.ITERIterations,
		NumericRepairs:  res.NumericRepairs,
		Trace:           run.Trace()[before:],
		Elapsed:         res.Elapsed,
	}, nil
}

// Metrics is a pairwise precision/recall/F1 evaluation result, with the
// TP/FP/FN counts behind it.
type Metrics = eval.PRF

// EvaluateMatches scores a boolean match assignment against ground truth.
// It returns false when the dataset has no ground truth.
func (p *Pipeline) EvaluateMatches(matched []bool) (Metrics, bool) {
	if p.truth == nil {
		return Metrics{}, false
	}
	return eval.EvaluatePairs(p.graph.Pairs, matched, p.truth, len(p.truth)), true
}

// EvaluateScores applies the paper's automatic threshold protocol: quantize
// [0, max] into 1000 values and return the threshold with the best F1.
func (p *Pipeline) EvaluateScores(scores []float64) (threshold float64, m Metrics, ok bool) {
	if p.truth == nil {
		return 0, Metrics{}, false
	}
	th, r := eval.BestThreshold(p.graph.Pairs, scores, p.truth, len(p.truth), 1000)
	return th, r, true
}

// EvaluateClusters scores a clustering with B-cubed precision/recall/F1,
// the per-record cluster metric that complements the paper's pairwise F1 on
// skewed cluster-size distributions. It returns false without ground truth.
func (p *Pipeline) EvaluateClusters(clusters [][]int) (Metrics, bool) {
	if p.truth == nil {
		return Metrics{}, false
	}
	gold := make([]int, p.dataset.NumRecords())
	for i := range gold {
		gold[i] = p.dataset.ds.Records[i].EntityID
	}
	return eval.BCubed(clusters, gold), true
}

// PRPoint is one precision/recall operating point of a score-based matcher.
type PRPoint = eval.PRPoint

// PRCurve computes the precision-recall curve of a pair scoring, one point
// per distinct score, thresholds descending. It returns false when the
// dataset has no ground truth.
func (p *Pipeline) PRCurve(scores []float64) ([]PRPoint, bool) {
	if p.truth == nil {
		return nil, false
	}
	return eval.PRCurve(p.graph.Pairs, scores, p.truth, len(p.truth)), true
}

// TermWeightQuality computes the Table IV diagnostic: Spearman's rank
// correlation between a term-weight vector and the score(t) oracle over
// terms connected to at least one candidate pair.
func (p *Pipeline) TermWeightQuality(weights []float64) (float64, bool) {
	return eval.TermWeightQuality(p.graph, p.truth, weights)
}

// TermScoreSeries returns the Figure 4 series for a weight vector: score(t)
// of terms ordered by descending weight.
func (p *Pipeline) TermScoreSeries(weights []float64) ([]float64, bool) {
	if p.truth == nil {
		return nil, false
	}
	oracle := eval.TermScores(p.graph, p.truth)
	return eval.RankSeries(weights, oracle), true
}

// BlockingRecall returns the fraction of ground-truth matching pairs that
// survived candidate generation — the recall ceiling of every downstream
// method. It returns false when the dataset has no ground truth.
func (p *Pipeline) BlockingRecall() (float64, bool) {
	return eval.BlockingRecall(p.graph, p.truth)
}

// TermWeight pairs a term's surface form with its learned weight.
type TermWeight struct {
	Term   string
	Weight float64
}

// TopTerms returns the k highest-weighted terms of a weight vector,
// descending — the library's window into what ITER decided is
// discriminative (model codes, phone numbers, rare title words).
func (p *Pipeline) TopTerms(weights []float64, k int) []TermWeight {
	out := make([]TermWeight, 0, p.corpus.NumTerms())
	for t, w := range weights {
		if w > 0 {
			out = append(out, TermWeight{Term: p.corpus.Terms[t], Weight: w})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Weight != out[j].Weight {
			return out[i].Weight > out[j].Weight
		}
		return out[i].Term < out[j].Term
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// Clusters groups records into entities by transitive closure over the
// matched pairs.
func (p *Pipeline) Clusters(matched []bool) [][]int {
	return cluster.FromMatches(p.dataset.NumRecords(), p.graph.Pairs, matched)
}

// Explanation breaks down why a candidate pair scored the way it did.
type Explanation struct {
	// I, J are the record indexes.
	I, J int
	// Similarity is the fused similarity s(ri, rj).
	Similarity float64
	// Probability is the CliqueRank matching probability p(ri, rj).
	Probability float64
	// SharedTerms lists the terms the records share with their learned
	// weights, heaviest first — the evidence the decision rests on.
	SharedTerms []TermWeight
}

// Explain reports the evidence behind one candidate pair's outcome. It
// returns false when (i, j) is not a candidate pair (records sharing
// nothing can never match).
func (p *Pipeline) Explain(out *FusionOutcome, i, j int) (Explanation, bool) {
	n := p.corpus.NumRecords()
	if i < 0 || j < 0 || i >= n || j >= n {
		return Explanation{}, false
	}
	shared := textproc.IntersectSorted(p.corpus.Docs[i], p.corpus.Docs[j])
	// A candidate pair is listed under every eligible term its records
	// share, and only eligible terms list pairs, each by ascending key
	// (index.NewGraph): the first shared term listing any pair decides.
	id := -1
	key := index.Key(int32(i), int32(j))
	for _, t := range shared {
		if tp := p.graph.TermPairs[t]; len(tp) > 0 {
			k, ok := slices.BinarySearchFunc(tp, key, func(pid int32, key uint64) int {
				pr := p.graph.Pairs[pid]
				return cmp.Compare(index.Key(pr.I, pr.J), key)
			})
			if ok {
				id = int(tp[k])
			}
			break
		}
	}
	if id < 0 {
		return Explanation{}, false
	}
	ex := Explanation{
		I: i, J: j,
		Similarity:  out.Similarities[id],
		Probability: out.Probabilities[id],
	}
	for _, t := range shared {
		ex.SharedTerms = append(ex.SharedTerms, TermWeight{
			Term:   p.corpus.Terms[t],
			Weight: out.TermWeights[t],
		})
	}
	sort.Slice(ex.SharedTerms, func(a, b int) bool {
		if ex.SharedTerms[a].Weight != ex.SharedTerms[b].Weight {
			return ex.SharedTerms[a].Weight > ex.SharedTerms[b].Weight
		}
		return ex.SharedTerms[a].Term < ex.SharedTerms[b].Term
	})
	return ex, true
}

// Match is one resolved record pair.
type Match struct {
	I, J        int
	Probability float64
}

// Result is the outcome of Resolve.
type Result struct {
	// Matches lists the record pairs with matching probability >= η,
	// ordered by candidate enumeration.
	Matches []Match
	// Clusters groups record indexes per resolved entity (size-descending;
	// unmatched records appear as singletons).
	Clusters [][]int
	// Probabilities holds p per candidate pair; Pairs identifies them.
	Probabilities []float64
	// Evaluation holds pairwise metrics when the dataset carries ground
	// truth; nil otherwise.
	Evaluation *Metrics
	// GraphNodes/GraphEdges describe the record graph.
	GraphNodes, GraphEdges int
	// Converged reports whether every ITER loop reached its tolerance
	// before its iteration cap.
	Converged bool
	// NumericRepairs counts values repaired by the numeric guardrails
	// (see FusionOutcome.NumericRepairs); 0 on a healthy run.
	NumericRepairs int
	// Degradation reports how candidate generation was degraded to satisfy
	// Options.MaxCandidatePairs; nil when no degradation was needed.
	Degradation *DegradationReport
	// Trace records every pipeline stage of the run in execution order —
	// tokenize, block, the fusion phases, cluster, evaluate — with wall
	// times, sizes and Cached flags (see StageTrace).
	Trace Trace
	// Elapsed is the fusion wall-clock time.
	Elapsed time.Duration
	// IDs maps record positions to external record IDs for results produced
	// by Collection.Resolve (ascending external-ID order); nil for the batch
	// Resolve, whose positions are the dataset's record indexes.
	IDs []string
	// Delta reports the delta-scoped resolver's work split — components and
	// pairs re-fused versus served from the component cache — for results
	// produced by Collection.Resolve; nil for the batch Resolve.
	Delta *DeltaStats
}

// Resolve runs the full unsupervised pipeline on a dataset: tokenize, block,
// iterate ITER ⇄ CliqueRank, threshold at η and cluster. It is
// ResolveContext with a background context.
func Resolve(d *Dataset, opts Options) (*Result, error) {
	return ResolveContext(context.Background(), d, opts)
}

// ResolveContext is Resolve under a context: cancellation and deadlines are
// polled from every hot loop (blocking enumeration, ITER sweeps, CliqueRank
// power iterations, RSS sampling), so a canceled context aborts the run
// promptly with an error wrapping context.Canceled or
// context.DeadlineExceeded. The Options budgets are enforced here:
// MaxWallClock bounds the whole run (its expiry wraps ErrBudgetExceeded and
// context.DeadlineExceeded), and MaxCandidatePairs degrades candidate
// generation gracefully, reported in Result.Degradation. Internal panics
// are converted into errors wrapping ErrInternal.
func ResolveContext(ctx context.Context, d *Dataset, opts Options) (res *Result, err error) {
	defer recoverToError(&err)
	if err := opts.Validate(); err != nil {
		return nil, err // Validate's errors wrap ErrInvalidOptions
	}
	if d == nil || d.NumRecords() == 0 {
		return nil, ErrNoRecords
	}
	ctx, cancel := opts.withWallClock(ctx)
	defer cancel()
	// One engine run carries the whole resolution, so Result.Trace records
	// every stage — construction through evaluation — in execution order.
	run := engine.NewRun(ctx, engine.RunOptions{Workers: opts.Workers})
	p, err := buildPipelineRun(run, ctx, d, opts)
	if err != nil {
		return nil, err
	}
	out, err := p.fuseRun(ctx, run)
	if err != nil {
		return nil, err
	}
	clusters, err := engine.Cluster(run, d.NumRecords(), p.graph.Pairs, out.Matched)
	if err != nil {
		return nil, wrapRunErr(ctx, err)
	}
	res = &Result{
		Probabilities:  out.Probabilities,
		Clusters:       clusters,
		GraphNodes:     out.GraphNodes,
		GraphEdges:     out.GraphEdges,
		Converged:      out.Converged,
		NumericRepairs: out.NumericRepairs,
		Degradation:    p.degradation,
		Elapsed:        out.Elapsed,
	}
	for k, matched := range out.Matched {
		if !matched {
			continue
		}
		i, j := p.CandidatePair(k)
		res.Matches = append(res.Matches, Match{I: i, J: j, Probability: out.Probabilities[k]})
	}
	if p.truth != nil {
		prf, err := engine.Evaluate(run, p.graph.Pairs, out.Matched, p.truth, len(p.truth))
		if err != nil {
			return nil, wrapRunErr(ctx, err)
		}
		res.Evaluation = &prf
	}
	res.Trace = run.Trace()
	return res, nil
}
