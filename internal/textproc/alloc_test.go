//go:build !race

// The race detector instruments allocation and inflates AllocsPerRun, so
// this regression test only runs in normal builds.

package textproc_test

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/textproc"
)

// TestBuildCorpusAllocs pins BuildCorpus's allocations per record. The
// builder interns tokens through one map, backs term strings with one copy
// per 64 KiB chunk of token bytes and shares two backing arrays across
// records, so only amortized growth allocates: ~0.07 times per record. The
// earlier builder allocated ~19 times per record (a token slice, a dedup
// map and slice, a term-set map, a sort closure and two ID slices each). A
// per-record map put back into the loop adds ~2.7 and fails the budget.
func TestBuildCorpusAllocs(t *testing.T) {
	const records = 4000
	texts := dataset.GenSynthetic(dataset.SyntheticConfig{
		Seed: 1, Records: records, DuplicateRate: 0.3, VocabSize: 50000,
	}).Texts()
	opts := textproc.DefaultCorpusOptions()
	got := testing.AllocsPerRun(3, func() { textproc.BuildCorpus(texts, opts) }) / records
	if got > 1 {
		t.Errorf("BuildCorpus allocates %.2f times per record, budget 1", got)
	}
}
