package er

// 100k-record scale acceptance. Gated behind ER_SCALE_ACCEPTANCE=1 (CI's
// scale-smoke-100k job sets it; the regular race-enabled suite does not)
// because the corpus generation plus two full resolves cost tens of
// seconds — too heavy for the default gate, too important to live only in
// benchmarks where nothing asserts.

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"testing"
	"time"

	"repro/internal/index"
	"repro/internal/matrix"
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

// scaleWarmTarget is the 1M warm upsert+resolve target the 1M acceptance
// logs its median against; wall time on a shared runner is too noisy to
// assert at this granularity, so only the ratio to the cold resolve is
// asserted.
const scaleWarmTarget = 30 * time.Millisecond

// TestScale1MAcceptance is the warm path at 1M records. Gated behind
// ER_SCALE_1M=1 and kept out of default CI: loading the corpus and the
// cold resolve take minutes and about 2 GB. It asserts that a warm
// upsert+resolve (best of three) costs at most 1/scaleDeltaRatio of the
// cold collection resolve and that a mutation flipping two high-df terms
// takes the Rebuilt fallback, and it logs the warm median against
// scaleWarmTarget and the largest component with a bound on its CliqueRank
// mask plan against MaskPlanMaxEntries.
//
// Options are the defaults plus MaxTermRecords 1000: at 1M records the
// synthetic vocabulary's head terms stay under the 12% kept band with
// document frequencies near 100k, and blocking over such terms is
// quadratic. Every ground-truth cluster has at most 8 records, far below
// the cap.
func TestScale1MAcceptance(t *testing.T) {
	if os.Getenv("ER_SCALE_1M") == "" {
		t.Skip("set ER_SCALE_1M=1 to run the 1M scale acceptance")
	}
	const n = 1000000
	d := SyntheticDataset(SyntheticConfig{Records: n, DuplicateRate: 0.3, VocabSize: 100000})
	opts := DefaultOptions()
	opts.MaxTermRecords = 1000
	col, err := NewCollection(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Two band terms, each held by exactly the kept threshold's number of
	// records (disjoint holders), sit at the top of the kept band: one
	// more holder of both flips both out of it and touches ~2×12% of the
	// corpus, more than the patch limit of 1/8.
	band := int(opts.MaxDFRatio * float64(n))
	id := func(i int) string { return fmt.Sprintf("r%07d", i) }
	label := func(i int) string { return strconv.Itoa(d.ds.Records[i].EntityID) }
	start := time.Now()
	for i := 0; i < n; i++ {
		text := d.Text(i)
		switch {
		case i < 2*band && i%2 == 0:
			text += " bandaa"
		case i < 2*band:
			text += " bandbb"
		}
		col.Upsert(id(i), Record{Text: text, Entity: label(i)})
	}
	t.Logf("load: %d records in %v", n, time.Since(start))

	// The largest component, from an uncommitted peek at the cold resolve.
	pd := col.ix.Pending()
	pd.Materialize()
	largest := slices.MaxFunc(pd.Comps, func(a, b index.PendingComponent) int {
		return len(a.Records) - len(b.Records)
	})
	// A plan entry is one term of |N(i) ∩ N(j)| over the record graph's
	// slots, so Σ (deg+1)² bounds the plan from above.
	deg := make([]int, len(largest.Records))
	for _, p := range largest.Graph.Pairs {
		deg[p.I]++
		deg[p.J]++
	}
	bound := 0
	for _, k := range deg {
		bound += (k + 1) * (k + 1)
	}
	t.Logf("largest component: %d records, %d pairs; mask plan entries <= %d, ceiling %d (exceeds: %v)",
		len(largest.Records), largest.Graph.NumPairs(), bound, matrix.MaskPlanMaxEntries,
		bound > matrix.MaskPlanMaxEntries)
	t.Logf("components: %d", pd.Components)
	pd, largest = nil, index.PendingComponent{}

	start = time.Now()
	cold, err := col.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	coldWall := time.Since(start)
	t.Logf("cold collection resolve: %v, %d pairs, %d matches, F1 %.4f", coldWall,
		len(cold.Probabilities), len(cold.Matches), cold.Evaluation.F1)
	cold = nil

	// Warm steps: overwrite a record with another record's text, a true
	// duplicate, each from a distinct donor so the component cache cannot
	// serve a state it has seen.
	var walls []time.Duration
	for round := 0; round < 21; round++ {
		donor := 3*band + 1000*round
		col.Upsert(id(2*band+7*round), Record{Text: d.Text(donor), Entity: label(donor)})
		start = time.Now()
		res, err := col.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		walls = append(walls, time.Since(start))
		if res.Delta.ComponentsReused == 0 {
			t.Fatalf("warm resolve %d reused no components: %+v", round, *res.Delta)
		}
	}
	best := slices.Min(walls[:3])
	sorted := slices.Clone(walls)
	slices.Sort(sorted)
	t.Logf("warm upsert+resolve: best of three %v, median of %d %v (target %v), max %v",
		best, len(walls), sorted[len(sorted)/2], scaleWarmTarget, sorted[len(sorted)-1])
	if best > coldWall/scaleDeltaRatio {
		t.Errorf("warm resolve took %v (best of 3), want <= 1/%d of the %v cold collection resolve",
			best, scaleDeltaRatio, coldWall)
	}

	// One more holder of both band terms: the Rebuilt fallback.
	start = time.Now()
	delta := col.Upsert(id(n), Record{Text: "bandaa bandbb", Entity: "band"})
	t.Logf("band-crossing upsert: %v, rebuilt %v", time.Since(start), delta.Rebuilt)
	if !delta.Rebuilt {
		t.Fatal("a mutation flipping two band terms (~24% of the records) did not rebuild the pair table")
	}
	start = time.Now()
	if _, err := col.Resolve(); err != nil {
		t.Fatal(err)
	}
	t.Logf("resolve after the rebuild: %v", time.Since(start))
}
