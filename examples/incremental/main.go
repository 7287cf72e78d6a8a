// Incremental: fit the framework once on a catalog, persist the learned
// model, then match *new* incoming records against it at query time —
// without re-running the pipeline. This is the deployment pattern for a
// live deduplication service.
//
// Run with:
//
//	go run ./examples/incremental
package main

import (
	"bytes"
	"context"
	"fmt"

	"repro"
)

func main() {
	// Fit on the existing catalog.
	ds := er.ProductReplica(er.ReplicaConfig{Seed: 3, Scale: 0.15})
	ctx := context.Background()
	pipe, err := er.NewPipelineContext(ctx, ds, er.DefaultOptions())
	if err != nil {
		panic(err)
	}
	out, err := pipe.FusionContext(ctx)
	if err != nil {
		panic(err)
	}
	matcher := pipe.Matcher(out)
	fmt.Printf("fitted on %d records\n", ds.NumRecords())

	// Persist and reload the model, as a service restart would.
	var model bytes.Buffer
	if err := matcher.Save(&model); err != nil {
		panic(err)
	}
	modelBytes := model.Len()
	reloaded, err := er.LoadMatcher(&model)
	if err != nil {
		panic(err)
	}
	fmt.Printf("model round-tripped through %d bytes of JSON\n\n", modelBytes)

	// A "new" record arrives: a noisy variant of catalog record 0.
	query := ds.Text(0) + " refurbished special offer"
	fmt.Printf("incoming record: %q\n\n", query)
	for rank, c := range reloaded.Match(query, 3) {
		fmt.Printf("%d. record %d (similarity %.2f)\n   %s\n   shared evidence: %v\n",
			rank+1, c.Record, c.Similarity, ds.Text(c.Record), c.SharedTerms[:min(4, len(c.SharedTerms))])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
