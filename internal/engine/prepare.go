package engine

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/textproc"
)

// Degradation describes how the Block stage degraded candidate generation
// to satisfy a pair budget. Degradation is lossy by design — tightened
// filters and truncation can drop true matches — so every step is
// recorded for the caller to audit. The root package declares
// er.DegradationReport as an alias of it.
type Degradation struct {
	// OriginalPairs is the candidate count of the untightened blocking
	// pass that exceeded the budget.
	OriginalPairs int
	// FinalPairs is the candidate count actually handed downstream.
	FinalPairs int
	// MinJaccard and MaxTermRecords are the effective blocking parameters
	// of the final pass (tighter than the configured ones).
	MinJaccard     float64
	MaxTermRecords int
	// TruncatedPairs counts pairs dropped by the deterministic last-resort
	// truncation after parameter tightening alone could not reach the
	// budget; 0 when tightening sufficed.
	TruncatedPairs int
	// Steps narrates each degradation step in order, for logs and CLIs.
	Steps []string
}

// PrepareInputs carries everything the pre-matching stages need.
type PrepareInputs struct {
	// Texts and Sources are the dataset's record texts and source labels,
	// index-aligned.
	Texts   []string
	Sources []int
	// Corpus and Blocking are the stage options. Blocking.Check is
	// overwritten with the run's checkpoint, and both Workers fields with
	// the run's worker budget.
	Corpus   textproc.CorpusOptions
	Blocking index.BatchOptions
	// MaxPairs is the candidate-pair budget (0 disables it); exceeding it
	// triggers the graceful degradation recorded in Degradation.
	MaxPairs int
	// Cache, when non-nil, is consulted for (and updated with) the
	// content-keyed snapshot, letting repeated runs on the same dataset
	// skip tokenization and blocking entirely.
	Cache *Cache
}

// Key returns the content key of the snapshot Prepare builds from in.
func (in *PrepareInputs) Key() string {
	return Key(in.Texts, in.Sources, in.Corpus, in.Blocking, in.MaxPairs)
}

// Prepare executes the pre-matching stages — tokenize and block — under
// the run, returning their snapshot. On a cache hit both stages are
// recorded as Cached with the sizes of the reused artifacts and no work
// is performed. The content key hashes every text, so it is computed only
// when a cache is set; without one the snapshot's Key is empty and a
// KeyMemo derives it on demand.
func Prepare(r *Run, in PrepareInputs) (*Snapshot, error) {
	var key string
	if in.Cache != nil {
		key = in.Key()
	}
	if snap, ok := in.Cache.Lookup(key); ok {
		r.Record(StageTrace{
			Stage: StageTokenize, Cached: true,
			In: len(in.Texts), InUnit: "records",
			Out: snap.NumTerms(), OutUnit: "terms",
		})
		st := StageTrace{
			Stage: StageBlock, Cached: true,
			In: snap.NumTerms(), InUnit: "terms",
			Out: snap.NumPairs(), OutUnit: "pairs",
		}
		if snap.Degradation != nil {
			st.Events = append(st.Events, snap.Degradation.Steps...)
		}
		r.Record(st)
		return snap, nil
	}

	snap := &Snapshot{Key: key}
	err := r.Stage(StageTokenize, func(st *StageTrace) error {
		// The build fans out on the run's worker budget; its corpus is the
		// same at every worker count, so the snapshot Key (which excludes
		// Workers) stays valid.
		cOpts := in.Corpus
		cOpts.Workers = r.workers
		snap.Corpus = textproc.BuildCorpus(in.Texts, cOpts)
		st.In, st.InUnit = len(in.Texts), "records"
		st.Out, st.OutUnit = snap.Corpus.NumTerms(), "terms"
		return nil
	})
	if err != nil {
		return nil, err
	}
	err = r.Stage(StageBlock, func(st *StageTrace) error {
		st.In, st.InUnit = snap.Corpus.NumTerms(), "terms"
		st.OutUnit = "pairs"
		g, deg, err := blockWithBudget(r, snap.Corpus, in)
		if err != nil {
			return err
		}
		snap.Graph, snap.Degradation = g, deg
		st.Out = g.NumPairs()
		if deg != nil {
			st.Events = append(st.Events, deg.Steps...)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	in.Cache.Add(snap)
	return snap, nil
}

// blockWithBudget builds the candidate graph and applies the
// MaxPairs budget with graceful degradation: it tightens the two blocking
// knobs geometrically and rebuilds — each attempt prunes the weakest
// candidates first (low-Jaccard pairs, pairs generated only by
// high-frequency terms), the degradation order that costs the least
// recall per dropped pair — truncating deterministically as a last
// resort.
func blockWithBudget(r *Run, corpus *textproc.Corpus, in PrepareInputs) (*index.Graph, *Degradation, error) {
	bOpts := in.Blocking
	bOpts.Check = r.check
	// The batch scan runs on the run's worker budget; like the fusion
	// kernels it is bit-identical across worker counts, so the snapshot Key
	// (which excludes Workers) stays valid.
	bOpts.Workers = r.workers
	g, err := index.BuildGraph(corpus, in.Sources, bOpts)
	if err != nil {
		return nil, nil, err
	}
	budget := in.MaxPairs
	if budget <= 0 || g.NumPairs() <= budget {
		return g, nil, nil
	}
	report := &Degradation{
		OriginalPairs:  g.NumPairs(),
		MinJaccard:     bOpts.MinJaccard,
		MaxTermRecords: bOpts.MaxTermRecords,
	}
	for attempt := 0; attempt < 4 && g.NumPairs() > budget; attempt++ {
		report.MinJaccard = math.Min(0.9, report.MinJaccard+0.15)
		if report.MaxTermRecords <= 0 || report.MaxTermRecords > 256 {
			report.MaxTermRecords = 256
		} else if report.MaxTermRecords > 8 {
			report.MaxTermRecords = report.MaxTermRecords / 2
		}
		bOpts.MinJaccard = report.MinJaccard
		bOpts.MaxTermRecords = report.MaxTermRecords
		if g, err = index.BuildGraph(corpus, in.Sources, bOpts); err != nil {
			return nil, nil, err
		}
		report.Steps = append(report.Steps, fmt.Sprintf(
			"tightened blocking to MinJaccard=%.2f MaxTermRecords=%d: %d pairs",
			report.MinJaccard, report.MaxTermRecords, g.NumPairs()))
	}
	if g.NumPairs() > budget {
		report.TruncatedPairs = g.NumPairs() - budget
		g = index.Truncate(g, budget)
		report.Steps = append(report.Steps, fmt.Sprintf(
			"truncated %d pairs beyond the budget of %d", report.TruncatedPairs, budget))
	}
	report.FinalPairs = g.NumPairs()
	return g, report, nil
}

// Cluster executes the clustering stage: transitive closure over the
// matched candidate pairs.
func Cluster(r *Run, numRecords int, pairs []index.Pair, matched []bool) ([][]int, error) {
	var out [][]int
	err := r.Stage(StageCluster, func(st *StageTrace) error {
		out = cluster.FromMatches(numRecords, pairs, matched)
		st.In, st.InUnit = len(pairs), "pairs"
		st.Out, st.OutUnit = len(out), "clusters"
		return nil
	})
	return out, err
}

// Evaluate executes the evaluation stage: pairwise precision/recall/F1 of
// a match assignment against ground truth.
func Evaluate(r *Run, pairs []index.Pair, matched []bool, truth map[uint64]bool, totalTrue int) (eval.PRF, error) {
	var prf eval.PRF
	err := r.Stage(StageEvaluate, func(st *StageTrace) error {
		prf = eval.EvaluatePairs(pairs, matched, truth, totalTrue)
		st.In, st.InUnit = len(pairs), "pairs"
		st.Out, st.OutUnit = prf.TP+prf.FP, "matches"
		return nil
	})
	return prf, err
}
