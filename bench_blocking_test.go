package er

// Blocking-layer benchmark at retrieval scale. Internal (package er) so it
// can reach the same corpus options the resolve path derives, keeping the
// measured work identical to what a real resolve performs.

import (
	"fmt"
	"testing"

	"repro/internal/index"
	"repro/internal/textproc"
)

// BenchmarkBlocking100k measures batch candidate generation on a
// 100000-record synthetic corpus across worker counts. The corpus is
// tokenized once outside the timer, so the samples isolate the blocking
// scan: per-shard counting-sort enumeration over the inverted index plus
// graph assembly. The output is bit-identical at every worker count
// (TestBuildGraphMatchesReference), so the workers=N samples are directly
// comparable. Skipped under -short: the 100k corpus setup alone is
// seconds-scale.
func BenchmarkBlocking100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k corpus setup is seconds-scale; skipped under -short")
	}
	d := SyntheticDataset(SyntheticConfig{
		Records:       100000,
		DuplicateRate: 0.3,
		VocabSize:     50000,
	})
	opts := DefaultOptions()
	c := textproc.BuildCorpus(d.ds.Texts(), opts.corpusOptions())
	bopts := index.BatchOptions{
		CrossSourceOnly: d.ds.NumSources > 1,
		MaxTermRecords:  opts.MaxTermRecords,
		MinSharedTerms:  opts.MinSharedTerms,
		MinJaccard:      opts.MinJaccard,
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			bopts.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := index.BuildGraph(c, d.ds.Sources(), bopts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
