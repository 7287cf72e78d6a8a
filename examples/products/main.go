// Products: the two-source e-commerce scenario from the paper's
// introduction. A synthetic Abt-Buy-style catalog is resolved with the
// fusion framework, and the learned term weights are inspected to show that
// the model discovers model codes as the discriminative terms — without any
// labels.
//
// Run with:
//
//	go run ./examples/products
package main

import (
	"context"
	"fmt"
	"sort"

	"repro"
)

func main() {
	// Generate a quarter-scale replica of the Abt-Buy benchmark: two
	// sources, noisy marketing descriptions, model codes as the only
	// reliable anchor.
	ds := er.ProductReplica(er.ReplicaConfig{Seed: 7, Scale: 0.25})
	fmt.Printf("catalog: %d records from %d sources, %d true matching pairs\n",
		ds.NumRecords(), ds.NumSources(), ds.NumTrueMatches())

	opts := er.DefaultOptions()
	ctx := context.Background()
	pipe, err := er.NewPipelineContext(ctx, ds, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("candidate pairs after blocking: %d\n\n", pipe.NumCandidates())

	// Compare the unsupervised framework against the string baselines the
	// paper evaluates (their thresholds are tuned by oracle sweep — "an
	// upper bound of manually tuned parameters").
	out, err := pipe.FusionContext(ctx)
	if err != nil {
		panic(err)
	}
	if m, ok := pipe.EvaluateMatches(out.Matched); ok {
		fmt.Printf("ITER+CliqueRank  F1 %.3f  (precision %.3f, recall %.3f)\n", m.F1, m.Precision, m.Recall)
	}
	if _, m, ok := pipe.EvaluateScores(pipe.TFIDF()); ok {
		fmt.Printf("TF-IDF (oracle)  F1 %.3f\n", m.F1)
	}
	if _, m, ok := pipe.EvaluateScores(pipe.Jaccard()); ok {
		fmt.Printf("Jaccard (oracle) F1 %.3f\n", m.F1)
	}

	// Show the highest-weighted terms: model codes should dominate, brand
	// and filler words should rank low — the paper's §V-A intuition.
	type tw struct {
		term   string
		weight float64
	}
	var terms []tw
	for t := 0; t < pipe.NumTerms(); t++ {
		if out.TermWeights[t] > 0 {
			terms = append(terms, tw{pipe.Term(t), out.TermWeights[t]})
		}
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].weight > terms[j].weight })
	fmt.Println("\nmost discriminative terms learned (expect model codes):")
	for _, t := range terms[:min(10, len(terms))] {
		fmt.Printf("  %-16s %.3f\n", t.term, t.weight)
	}
	fmt.Println("\nleast discriminative shared terms (expect brands/filler):")
	for _, t := range terms[max(0, len(terms)-5):] {
		fmt.Printf("  %-16s %.3f\n", t.term, t.weight)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
