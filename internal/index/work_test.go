package index_test

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/textproc"
)

// TestPartnerScanWork bounds the work of the prefix-filtered partner scan
// per record, on a 20k corpus of the batch-100k benchmark's shape, for
// the forward scan of BuildGraph and for a Collection-style upsert load.
// A probe is one posting entry visited, a lookup one suffix term searched
// in a candidate's term list. Probing every eligible term's postings
// roughly triples the probes, and verifying candidates without the
// upper-bound check multiplies the lookups by tens, so either regression
// fails a bound here while the survivor set stays the same.
func TestPartnerScanWork(t *testing.T) {
	const n = 20000
	d := dataset.GenSynthetic(dataset.SyntheticConfig{Seed: 1, Records: n, DuplicateRate: 0.3, VocabSize: 50000})
	copts := textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: 0.12}
	bopts := index.BatchOptions{CrossSourceOnly: d.NumSources > 1, MinSharedTerms: 2, MinJaccard: 0.2}

	c := textproc.BuildCorpus(d.Texts(), copts)
	g, probes, lookups, err := index.BuildGraphWork(c, d.Sources(), bopts)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("forward scan: %d pairs, %.2f probes and %.3f lookups per record", g.NumPairs(), float64(probes)/n, float64(lookups)/n)

	ix := index.New(index.Config{Corpus: copts, Block: bopts})
	texts, sources := d.Texts(), d.Sources()
	for i, text := range texts {
		ix.Upsert(fmt.Sprintf("r%06d", i), text, sources[i])
	}
	loadProbes, loadLookups := ix.ScanWork()
	t.Logf("upsert load: %d pairs, %.2f probes and %.3f lookups per record", ix.Materialize().Graph.NumPairs(), float64(loadProbes)/n, float64(loadLookups)/n)

	for _, b := range []struct {
		what  string
		got   int64
		limit float64 // per record
	}{
		{"forward-scan probes", probes, 30},
		{"forward-scan lookups", lookups, 1.5},
		{"upsert-load probes", loadProbes, 36},
		{"upsert-load lookups", loadLookups, 1.5},
	} {
		if per := float64(b.got) / n; per > b.limit {
			t.Errorf("%s: %.3f per record, want at most %.3f", b.what, per, b.limit)
		}
	}
}
