// Package er is an unsupervised entity-resolution library reproducing the
// graph-theoretic fusion framework of Zhang et al. (ICDE 2018): the ITER
// term/record-pair ranking algorithm and the CliqueRank matching-probability
// estimator, iterated until they reinforce each other.
//
// The library needs no labeled data, no crowd assistance and no manually
// tuned similarity threshold: record pairs are declared matches when their
// estimated matching probability exceeds a universal threshold η (0.98 by
// default, used unchanged across domains in the paper).
//
// # Quick start
//
//	records := []er.Record{
//		{Text: "sony turntable pslx350h belt drive"},
//		{Text: "sony pslx350h turntable with dust cover"},
//		{Text: "pioneer receiver vsx321"},
//	}
//	ds := er.NewDataset("catalog", records)
//	res, err := er.Resolve(ds, er.DefaultOptions())
//	// res.Matches lists matched pairs with probabilities;
//	// res.Clusters groups record indexes per entity.
//
// # Pipeline access
//
// NewPipelineContext builds a Pipeline, which exposes the intermediate
// stages — candidate generation, the baseline scorers of the paper's
// evaluation (Jaccard, TF-IDF, bipartite SimRank, PageRank/TW-IDF, Hybrid),
// the learned term weights of Pipeline.FusionContext and the threshold-sweep
// evaluator — which is what the benchmark harness (cmd/erbench) and the
// examples build on. Both stages honor the context and the Options budgets
// and report failures as errors.
//
// # Stage traces and snapshot caching
//
// Every resolution executes through a staged engine; Result.Trace and
// Pipeline.Trace report per-stage wall time, input/output sizes, fusion
// round counts and blocking-degradation events. Attaching a
// SnapshotCache via Options.Snapshots lets repeated runs over the same
// records reuse the tokenized corpus and candidate graph — the cache is
// content-keyed, so a hit is byte-identical to a recompute — with reused
// stages marked Cached in the trace.
//
// # Benchmark replicas
//
// RestaurantReplica, ProductReplica and PaperReplica generate synthetic
// stand-ins for the Fodors-Zagat, Abt-Buy and Cora benchmarks with the
// published record counts, match counts and cluster-size distributions
// (see DESIGN.md for the substitution rationale).
package er
