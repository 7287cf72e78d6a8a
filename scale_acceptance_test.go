package er

// 100k-record scale acceptance. Gated behind ER_SCALE_ACCEPTANCE=1 (CI's
// scale-smoke-100k job sets it; the regular race-enabled suite does not)
// because the corpus generation plus two full resolves cost tens of
// seconds — too heavy for the default gate, too important to live only in
// benchmarks where nothing asserts.

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/textproc"
)

// Scale-acceptance budgets. Wall-clock assertions are inherently machine-
// dependent, so each budget is set several multiples above what this
// code does on a developer machine while staying far below what the
// pre-refactor code did (18.2s serial blocking at 100k records): a budget
// trip means a real regression, not a slow runner.
const (
	// scaleBlockingBudget bounds the parallel batch blocking scan at 100k
	// records (measured ~0.5s with 4 workers, ~1.4s serial).
	scaleBlockingBudget = 10 * time.Second
	// scaleDeltaRatio is the incremental-resolve acceptance: a one-record
	// upsert on a warm 100k collection must resolve in at most
	// 1/scaleDeltaRatio of a full from-scratch resolve (er.Resolve:
	// tokenize + block + fuse + cluster) of the same corpus — the cost a
	// caller without the incremental index pays per refresh.
	scaleDeltaRatio = 10
)

func TestScale100kAcceptance(t *testing.T) {
	if os.Getenv("ER_SCALE_ACCEPTANCE") == "" {
		t.Skip("set ER_SCALE_ACCEPTANCE=1 to run the 100k scale acceptance")
	}
	d := SyntheticDataset(SyntheticConfig{
		Records:       100000,
		DuplicateRate: 0.3,
		VocabSize:     50000,
	})
	opts := DefaultOptions()

	// Blocking wall-time budget: the batch scan over the inverted index.
	c := textproc.BuildCorpus(d.ds.Texts(), opts.corpusOptions())
	start := time.Now()
	g, err := index.BuildGraph(c, d.ds.Sources(), index.BatchOptions{
		CrossSourceOnly: d.ds.NumSources > 1,
		MaxTermRecords:  opts.MaxTermRecords,
		MinSharedTerms:  opts.MinSharedTerms,
		MinJaccard:      opts.MinJaccard,
	})
	if err != nil {
		t.Fatal(err)
	}
	blockingWall := time.Since(start)
	t.Logf("blocking: %v, %d candidate pairs", blockingWall, g.NumPairs())
	if blockingWall > scaleBlockingBudget {
		t.Errorf("blocking took %v at 100k records, budget %v", blockingWall, scaleBlockingBudget)
	}

	// Full-resolve reference: the batch pipeline from raw texts, which is
	// what every refresh costs without the incremental index.
	start = time.Now()
	if _, err := Resolve(d, opts); err != nil {
		t.Fatal(err)
	}
	fullWall := time.Since(start)
	t.Logf("full batch resolve: %v", fullWall)

	// Incremental-resolve acceptance: load the same corpus into a
	// Collection, pay the cold collection resolve once, then require a
	// single-record upsert to resolve in a small fraction of the full
	// batch resolve.
	col, err := NewCollection(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.NumRecords(); i++ {
		col.Upsert(fmt.Sprintf("r%06d", i), Record{Text: d.Text(i)})
	}
	start = time.Now()
	cold, err := col.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cold collection resolve: %v, %d matches, %+v", time.Since(start), len(cold.Matches), *cold.Delta)

	// Overwrite one record with another record's text: a genuine duplicate
	// whose new candidate pairs force exactly its component to re-fuse.
	// Three mutation+resolve rounds, taking the fastest: a single-shot
	// wall time on a small runner carries GC pauses worth tens of
	// milliseconds, and the criterion is about the algorithmic cost of a
	// delta-scoped resolve, not pause luck. Each round borrows a distinct
	// donor text: repeating one would revisit a collection state whose
	// component results the content-keyed cache already holds, and the
	// resolve would (correctly) re-fuse nothing.
	incWall := time.Duration(1<<63 - 1)
	for round := 0; round < 3; round++ {
		col.Upsert("r000042", Record{Text: d.Text(43 + round)})
		start = time.Now()
		inc, err := col.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		wall := time.Since(start)
		if wall < incWall {
			incWall = wall
		}
		t.Logf("incremental resolve (round %d): %v, %d matches, %+v",
			round, wall, len(inc.Matches), *inc.Delta)
		if inc.Delta.ComponentsFused == 0 {
			t.Error("duplicate upsert re-fused no components")
		}
		if inc.Delta.ComponentsReused == 0 {
			t.Error("incremental resolve reused no components")
		}
	}
	if incWall > fullWall/scaleDeltaRatio {
		t.Errorf("one-record incremental resolve took %v (best of 3), want <= 1/%d of the %v full resolve",
			incWall, scaleDeltaRatio, fullWall)
	}
}
