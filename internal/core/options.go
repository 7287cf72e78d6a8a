// Package core implements the paper's primary contribution: the ITER
// algorithm (§V), the RSS random-surfer sampler and the CliqueRank matrix
// algorithm (§VI), and the fusion loop that reinforces them against each
// other (§IV, §VII-F).
package core

import (
	"time"

	"repro/internal/clock"
	"repro/internal/guard"
)

// Options carries the framework parameters. The defaults are the universal
// setting of §VII-C: α = 20, S = 20, η = 0.98, 5 fusion iterations — the
// paper uses the same values on all three datasets.
type Options struct {
	// Alpha is the exponent of the non-linear transition probability
	// (Eq. 11). Large values concentrate the random walk on high-weight
	// edges so it stays inside the ground-truth clique. A zero Alpha
	// flattens the transform (w^0 = 1), making every walk uniform; use
	// DefaultOptions for the paper's setting of 20.
	Alpha float64
	// Steps is S, the maximum random-walk length (Eq. 14–15). Zero permits
	// no steps, so every walk fails to reach its target.
	Steps int
	// Eta is the matching-probability threshold η; pairs with
	// p(ri, rj) >= Eta are declared matches. Zero declares every surviving
	// candidate pair a match.
	Eta float64
	// FusionIterations is the number of ITER → CliqueRank rounds (5 in the
	// paper's Table V). Values below 1 — including the zero value — are
	// normalized to a single round.
	FusionIterations int

	// ITERTol stops the inner ITER loop once Σ|Δx_t| falls below it. Zero
	// disables the early-convergence exit: the loop runs the full
	// ITERMaxIters.
	ITERTol float64
	// ITERMaxIters bounds the inner ITER loop. Zero runs no inner
	// iterations, leaving the randomly initialized weights untouched.
	ITERMaxIters int
	// Normalization selects the per-iteration term-weight normalization.
	// The zero value is NormBounded, the paper's x/(1+x) map.
	Normalization Normalization

	// UseRSS replaces CliqueRank with the sampling-based RSS estimator
	// (Algorithm 2). Exponentially slower on dense graphs; kept for the
	// Table III speedup comparison and cross-validation tests.
	UseRSS bool
	// RSSWalks is M, the number of sampled walks per edge (half from each
	// endpoint). Zero samples no walks, pinning every RSS estimate at 0.
	RSSWalks int

	// DisableBonus turns off the target-edge weight boosting of Eq. 12
	// (ablation 2 in DESIGN.md).
	DisableBonus bool
	// DisableMask turns off the ⊙ M_n early-stop masking in CliqueRank and
	// the corresponding early-stop in RSS walks (ablation 3).
	DisableMask bool
	// DisableDenominator drops the P_t normalization of Eq. 6, degrading
	// ITER to PageRank-like accumulation (ablation 4).
	DisableDenominator bool

	// Seed drives all randomness (x_t initialization, bonus draws, RSS
	// walks); runs with equal seeds are identical. A zero Seed selects the
	// default seed 1, matching the zero-value behavior of er.ReplicaConfig
	// and er.Options.
	Seed int64

	// Workers bounds the goroutines the ITER, CliqueRank and RSS kernels fan
	// out across. All parallel loops run through the deterministic chunked
	// scheduler (internal/parallel), so every Workers setting — including 1 —
	// produces bit-identical scores. The zero value (and any value below 1)
	// selects runtime.GOMAXPROCS(0).
	Workers int

	// Deprecated: ignored. engine.Fuse ranks every CliqueRank run per
	// connected component and RunFusion ranks the graph it is given whole;
	// both give the same bits.
	ShardComponents bool

	// Scratch, when non-nil, recycles the record-graph and rank-kernel
	// arena across sequential fusion runs on the same goroutine (see
	// Scratch). Nil allocates a private arena per run.
	Scratch *Scratch

	// Check, when non-nil, is polled from the hot loops of ITER, CliqueRank
	// and RSS. Once it reports cancellation, RunFusion abandons the
	// remaining work and returns the checkpoint's error (for context-backed
	// checkpoints: context.Canceled or context.DeadlineExceeded).
	Check *guard.Checkpoint

	// Progress, when non-nil, is invoked after every fusion iteration with
	// the iteration number (1-based), the current pair similarities and
	// matching probabilities, and the cumulative elapsed time. It powers
	// the Table V harness without coupling core to the evaluation code.
	// The s and p slices are scratch the fusion loop rewrites each round:
	// they are valid only during the callback and must be copied to be
	// retained.
	Progress func(iteration int, s, p []float64, elapsed time.Duration)

	// Clock supplies the timestamps behind FusionResult.Elapsed and the
	// Progress callback; nil selects the system clock. It exists so the
	// kernel never reads ambient time directly (the determinism lint bans
	// time.Now here) and timing-dependent tests can inject a fake.
	Clock clock.Func
}

// Normalization identifies an ITER term-weight normalization scheme. The
// additive rule of Eq. 7 grows without bound, so §V-C normalizes x_t every
// iteration; the paper's implementation uses the bounded map and notes that
// an L2 normalization "can also be applied".
type Normalization int

const (
	// NormBounded is x_t ← x_t/(1+x_t) (the paper's 1/(1 + 1/x_t)).
	NormBounded Normalization = iota
	// NormL2 rescales the weight vector to unit Euclidean norm.
	NormL2
)

// String implements fmt.Stringer.
func (n Normalization) String() string {
	switch n {
	case NormBounded:
		return "bounded"
	case NormL2:
		return "l2"
	default:
		return "unknown"
	}
}

// DefaultOptions returns the paper's universal parameter setting.
func DefaultOptions() Options {
	return Options{
		Alpha:            20,
		Steps:            20,
		Eta:              0.98,
		FusionIterations: 5,
		ITERTol:          1e-6,
		ITERMaxIters:     100,
		RSSWalks:         20,
		Seed:             1,
	}
}
