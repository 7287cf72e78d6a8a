package er

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/textproc"
)

// Options configures the resolution pipeline. The zero value is NOT valid;
// start from DefaultOptions, which reproduces the paper's universal
// parameter setting (§VII-C): α = 20, S = 20, η = 0.98, 5 fusion rounds.
type Options struct {
	// Alpha is the non-linear transition exponent of the random walk
	// (Eq. 11). Zero is invalid: Validate rejects it.
	Alpha float64
	// Steps is S, the maximum walk length. Zero is invalid: Validate
	// rejects it.
	Steps int
	// Eta is the matching-probability threshold η. Because CliqueRank's
	// output is a probability, η transfers across domains (the paper uses
	// 0.98 everywhere). Zero is a legal threshold that declares every
	// surviving candidate pair a match.
	Eta float64
	// FusionIterations is the number of ITER → CliqueRank rounds. Zero is
	// invalid: Validate rejects it.
	FusionIterations int

	// MaxDFRatio removes terms occurring in more than this fraction of
	// records during pre-processing (§VII-A "remove the terms that are
	// very frequent"). Zero keeps every term: no frequency filter.
	MaxDFRatio float64
	// MaxTermRecords skips terms contained in more than this many records
	// during candidate generation; 0 (the default) disables the cap and
	// relies on MaxDFRatio. Any positive cap must exceed the largest
	// ground-truth cluster size, or blocking dismembers that cluster: the
	// Paper benchmark's largest entity has 192 records whose shared title
	// words have df = 192.
	MaxTermRecords int
	// MinJaccard requires candidate pairs to reach this Jaccard similarity
	// (default 0.2; the crowd-based systems the paper compares against
	// pre-filter these benchmarks at Jaccard 0.3, and 0.2 is the equivalent
	// operating point for this tokenizer).
	MinJaccard float64
	// Stopwords are removed during pre-processing regardless of frequency,
	// for domain knowledge the frequency filter cannot see. Nil removes
	// nothing beyond the frequency filter.
	Stopwords []string
	// MinSharedTerms requires candidate pairs to share at least this many
	// terms (default 2). Set to 1 for the paper's literal footnote rule.
	// Records sharing exactly one mid-frequency term form isolated
	// equal-weight components that no topological estimator can tell from
	// true entities; a second shared term dissolves those fake cliques.
	MinSharedTerms int
	// CrossSourceOnly restricts candidate pairs to records from different
	// sources. Resolve derives this from the dataset (multi-source implies
	// true) and ignores the field; Collection — whose source mix changes as
	// records stream in — uses it as configured at creation, because the
	// incremental pair table bakes the rule in.
	CrossSourceOnly bool

	// UseRSS swaps CliqueRank for the sampling-based RSS estimator.
	UseRSS bool
	// RSSWalks is M, the number of walks sampled per edge by RSS. Zero is
	// ignored unless UseRSS is set, in which case Validate rejects values
	// below 2.
	RSSWalks int

	// L2Normalization switches ITER's per-iteration term-weight
	// normalization from the paper's bounded map x/(1+x) to unit Euclidean
	// norm (the alternative §V-C mentions). The learned ranking is
	// preserved; only the weight scale changes.
	L2Normalization bool

	// Seed drives every random choice in the pipeline. A zero Seed selects
	// the default seed 1 — the same zero-value behavior as ReplicaConfig —
	// so runs configured with the zero value are reproducible by default.
	Seed int64

	// Workers bounds the goroutines the fusion kernels (ITER, CliqueRank,
	// RSS) fan out across. Results are bit-identical for every setting —
	// the kernels run through a deterministic chunked scheduler — so this
	// knob trades only wall-clock time against CPU. Zero selects
	// runtime.GOMAXPROCS(0); Validate rejects negative values.
	Workers int

	// Deprecated: ignored. Resolve always ranks per connected component,
	// which gives the same bits as ranking the whole record graph.
	DisableSharding bool

	// MaxCandidatePairs caps the number of candidate pairs blocking may
	// hand to the quadratic-and-worse downstream stages; 0 disables the
	// cap. When natural blocking exceeds it, the pipeline degrades
	// gracefully: it tightens MinJaccard and MaxTermRecords and retries,
	// truncating deterministically as a last resort, and reports every
	// step in Result.Degradation (Pipeline.Degradation).
	MaxCandidatePairs int
	// MaxWallClock bounds the wall-clock time of ResolveContext (the whole
	// run) and, for staged callers, of NewPipelineContext and
	// Pipeline.FusionContext individually; 0 disables the bound. When it
	// elapses, the run aborts with an error wrapping both
	// ErrBudgetExceeded and context.DeadlineExceeded.
	MaxWallClock time.Duration

	// Progress, when non-nil, observes each fusion iteration with the
	// current pair similarities, matching probabilities and cumulative
	// elapsed time.
	Progress func(iteration int, s, p []float64, elapsed time.Duration)

	// Snapshots, when non-nil, caches the pre-matching artifacts
	// (tokenized corpus, blocked candidate graph, degradation report)
	// content-keyed by dataset and options, so repeated pipelines over the
	// same data skip the dominant pre-matching cost; cached stages appear
	// in the trace with Cached set. Nil disables reuse.
	Snapshots *SnapshotCache
}

// DefaultOptions returns the paper's universal setting.
func DefaultOptions() Options {
	return Options{
		Alpha:            20,
		Steps:            20,
		Eta:              0.98,
		FusionIterations: 5,
		MaxDFRatio:       0.12,
		MinSharedTerms:   2,
		MinJaccard:       0.2,
		RSSWalks:         20,
		Seed:             1,
	}
}

// Validate reports the first configuration error, or nil. Resolve,
// ResolveContext, NewPipelineContext and NewCollection reject invalid
// options with an error wrapping ErrInvalidOptions.
func (o Options) Validate() error {
	switch {
	case o.Alpha <= 0:
		return fmt.Errorf("%w: Alpha must be positive, got %g", ErrInvalidOptions, o.Alpha)
	case o.Steps < 1:
		return fmt.Errorf("%w: Steps must be >= 1, got %d", ErrInvalidOptions, o.Steps)
	case o.Eta < 0 || o.Eta > 1:
		return fmt.Errorf("%w: Eta must be in [0,1], got %g", ErrInvalidOptions, o.Eta)
	case o.FusionIterations < 1:
		return fmt.Errorf("%w: FusionIterations must be >= 1, got %d", ErrInvalidOptions, o.FusionIterations)
	case o.MaxDFRatio < 0 || o.MaxDFRatio > 1:
		return fmt.Errorf("%w: MaxDFRatio must be in [0,1], got %g", ErrInvalidOptions, o.MaxDFRatio)
	case o.MinJaccard < 0 || o.MinJaccard > 1:
		return fmt.Errorf("%w: MinJaccard must be in [0,1], got %g", ErrInvalidOptions, o.MinJaccard)
	case o.UseRSS && o.RSSWalks < 2:
		return fmt.Errorf("%w: RSSWalks must be >= 2 when UseRSS is set, got %d", ErrInvalidOptions, o.RSSWalks)
	case o.MaxCandidatePairs < 0:
		return fmt.Errorf("%w: MaxCandidatePairs must be >= 0, got %d", ErrInvalidOptions, o.MaxCandidatePairs)
	case o.MaxWallClock < 0:
		return fmt.Errorf("%w: MaxWallClock must be >= 0, got %s", ErrInvalidOptions, o.MaxWallClock)
	case o.Workers < 0:
		return fmt.Errorf("%w: Workers must be >= 0, got %d", ErrInvalidOptions, o.Workers)
	}
	return nil
}

func (o Options) coreOptions() core.Options {
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

func (o Options) corpusOptions() textproc.CorpusOptions {
	return textproc.CorpusOptions{
		Tokenize:   textproc.DefaultTokenizeOptions(),
		MaxDFRatio: o.MaxDFRatio,
		Stopwords:  o.Stopwords,
	}
}
