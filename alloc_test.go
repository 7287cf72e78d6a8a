//go:build !race

// The race detector instruments allocation and inflates AllocsPerRun, so
// this gate runs only in normal builds (scripts/check.sh runs it in its
// non-race allocation step).

package er

import "testing"

// TestWarmResolveAllocs bounds the warm path's allocation count outright,
// where TestWarmResolveAllocsDeltaSized bounds only its growth with the
// corpus: on a 4k-record collection, a one-record overwrite plus Resolve
// that re-fuses one 2-record component allocates at most warmResolveAllocs
// times. The component cache is off (warmCollection turns it off), so
// every resolve fuses the touched component instead of finding it
// memoized. The budget is the measured count: the 2-record component is
// ranked by CliqueRank's closed form, without a record graph.
func TestWarmResolveAllocs(t *testing.T) {
	const warmResolveAllocs = 140
	c, _ := warmCollection(t, 4000)
	c.Upsert("pair-a", Record{Text: "alpha9 beta9 gamma9", Entity: "pair"})
	texts := []string{"alpha9 beta9 gamma9 delta9", "alpha9 beta9 gamma9 epsilon9"}
	k := 0
	step := func() *Result {
		k++
		c.Upsert("pair-b", Record{Text: texts[k%2], Entity: "pair"})
		res, err := c.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	step()
	if d := step().Delta; d.ComponentsFused != 1 || d.PairsFused != 1 {
		t.Fatalf("an overwrite fused %d components with %d pairs, want one 2-record component", d.ComponentsFused, d.PairsFused)
	}
	got := testing.AllocsPerRun(10, func() { step() })
	if got > warmResolveAllocs {
		t.Fatalf("a warm overwrite plus resolve allocates %.0f times, budget %d", got, warmResolveAllocs)
	}
}

// TestColdResolveAllocs bounds a cold batch Resolve of a 4k-record
// synthetic corpus (the batch-100k shape) at one worker. Fusion lays every
// record graph of the run out as windows of a few run-wide arrays, ranks
// the small components in block-diagonal batches and draws CliqueRank's
// workspace from the arena, so the number of components costs nothing in
// allocations, and each blocking chunk copies its survivors out once. It
// measured 347–398 over 36 runs at GOMAXPROCS 1, 2 and 4 (pool misses
// after a collection move it), and the budget is the top plus 5%; one
// record graph per component made 3,308, and a resolve that rebuilt every
// graph and plan each round 27,393.
func TestColdResolveAllocs(t *testing.T) {
	const coldResolveAllocs = 420
	d := SyntheticDataset(SyntheticConfig{Seed: 1, Records: 4000, DuplicateRate: 0.3, VocabSize: 50000})
	opts := DefaultOptions()
	opts.Workers = 1
	resolve := func() {
		if _, err := Resolve(d, opts); err != nil {
			t.Fatal(err)
		}
	}
	resolve()
	got := testing.AllocsPerRun(3, resolve)
	t.Logf("a cold 4k Resolve allocates %.0f times", got)
	if got > coldResolveAllocs {
		t.Fatalf("a cold 4k Resolve allocates %.0f times, budget %d", got, coldResolveAllocs)
	}
}
