package textproc_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/textproc"
)

// BenchmarkBuildCorpus times the batch pre-processing stage on the
// 100k-record synthetic corpus of the scale benchmarks (4k under -short).
func BenchmarkBuildCorpus(b *testing.B) {
	records := 100000
	if testing.Short() {
		records = 4000
	}
	texts := dataset.GenSynthetic(dataset.SyntheticConfig{
		Seed: 1, Records: records, DuplicateRate: 0.3, VocabSize: 50000,
	}).Texts()
	opts := textproc.DefaultCorpusOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		textproc.BuildCorpus(texts, opts)
	}
}
