//go:build !race

// The race detector instruments allocation and inflates AllocsPerRun, so
// these regression tests only run in normal builds.

package textproc_test

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/textproc"
)

func syntheticTexts(records int) []string {
	return dataset.GenSynthetic(dataset.SyntheticConfig{
		Seed: 1, Records: records, DuplicateRate: 0.3, VocabSize: 50000,
	}).Texts()
}

// TestBuildCorpusAllocs pins BuildCorpus's allocation count as the input
// grows: only the vocab's arrays grow with it, each by doubling, so
// quadrupling the records adds a few allocations, not a few per record.
// Measured: 56 at 4k records and 60 at 16k; the budget is the 16k count
// plus 5%, less the 4k count. The builder before the flat vocab, which
// interned through a string-keyed map, made 285 and 571.
func TestBuildCorpusAllocs(t *testing.T) {
	opts := textproc.DefaultCorpusOptions()
	opts.Workers = 1
	small, large := syntheticTexts(4000), syntheticTexts(16000)
	at4k := testing.AllocsPerRun(3, func() { textproc.BuildCorpus(small, opts) })
	at16k := testing.AllocsPerRun(3, func() { textproc.BuildCorpus(large, opts) })
	t.Logf("allocs: %.0f at 4k records, %.0f at 16k", at4k, at16k)
	const budget = 7
	if at16k > at4k+budget {
		t.Errorf("BuildCorpus allocates %.0f times at 16k records against %.0f at 4k: more than %d extra", at16k, at4k, budget)
	}
}

// TestBuildCorpusBytes bounds the bytes BuildCorpus allocates per byte of
// input text at 16k records. Measured: 11.13; the budget is that plus 5%.
// The token sequence is sized once from a bound on the token count;
// growing it by append instead reads 13.40 and fails. The builder before
// the flat vocab read 18.40.
func TestBuildCorpusBytes(t *testing.T) {
	opts := textproc.DefaultCorpusOptions()
	opts.Workers = 1
	texts := syntheticTexts(16000)
	textBytes := 0
	for _, txt := range texts {
		textBytes += len(txt)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const runs = 3
	for i := 0; i < runs; i++ {
		textproc.BuildCorpus(texts, opts)
	}
	runtime.ReadMemStats(&after)
	perByte := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(textBytes)
	t.Logf("%.2f bytes allocated per text byte (%d text bytes)", perByte, textBytes)
	const budget = 11.69
	if perByte > budget {
		t.Errorf("BuildCorpus allocates %.2f bytes per text byte, budget %.2f", perByte, budget)
	}
}
