package textproc_test

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/textproc"
)

// BenchmarkBuildCorpus times the batch pre-processing stage on the
// 100k-record synthetic corpus of the scale benchmarks (4k under -short),
// fanned out over 1, 2 and 4 workers.
func BenchmarkBuildCorpus(b *testing.B) {
	records := 100000
	if testing.Short() {
		records = 4000
	}
	texts := dataset.GenSynthetic(dataset.SyntheticConfig{
		Seed: 1, Records: records, DuplicateRate: 0.3, VocabSize: 50000,
	}).Texts()
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := textproc.DefaultCorpusOptions()
			opts.Workers = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				textproc.BuildCorpus(texts, opts)
			}
		})
	}
}

// BenchmarkTokenize times Tokenize, which every Index.Upsert calls, record
// by record over 4k synthetic records and the awkward texts.
func BenchmarkTokenize(b *testing.B) {
	texts := append(dataset.GenSynthetic(dataset.SyntheticConfig{
		Seed: 1, Records: 4000, DuplicateRate: 0.3, VocabSize: 50000,
	}).Texts(), awkwardTexts...)
	size := 0
	for _, txt := range texts {
		size += len(txt)
	}
	opts := textproc.DefaultTokenizeOptions()
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, txt := range texts {
			textproc.Tokenize(txt, opts)
		}
	}
}
