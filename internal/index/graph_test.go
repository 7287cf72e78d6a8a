package index

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/guard"
	"repro/internal/textproc"
)

// pairID returns the pair-node ID of records (i, j), in either order, and
// whether they form a candidate pair.
func pairID(g *Graph, i, j int32) (int32, bool) {
	key := Key(i, j)
	for id, pr := range g.Pairs {
		if Key(pr.I, pr.J) == key {
			return int32(id), true
		}
	}
	return 0, false
}

func testCorpus(texts ...string) *textproc.Corpus {
	return textproc.BuildCorpus(texts, textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()})
}

// mustBuild builds a candidate graph and fails the test on error.
func mustBuild(t *testing.T, c *textproc.Corpus, source []int, opts BatchOptions) *Graph {
	t.Helper()
	g, err := BuildGraph(c, source, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestBuildSingleSource(t *testing.T) {
	c := testCorpus(
		"sony turntable pslx350h", // 0
		"sony turntable",          // 1
		"pioneer receiver",        // 2
		"pioneer amp",             // 3
	)
	g := mustBuild(t, c, nil, BatchOptions{})
	// candidates: (0,1) share sony+turntable, (2,3) share pioneer
	if g.NumPairs() != 2 {
		t.Fatalf("NumPairs = %d, want 2", g.NumPairs())
	}
	if _, ok := pairID(g, 0, 1); !ok {
		t.Error("pair (0,1) missing")
	}
	if _, ok := pairID(g, 0, 2); ok {
		t.Error("pair (0,2) must not be a candidate (no shared term)")
	}
	sony := termID(c, "sony")
	if g.Pt(sony) != 1 {
		t.Errorf("Pt(sony) = %d, want 1", g.Pt(sony))
	}
	// bipartite edges: sony->1, turntable->1, pioneer->1 => 3
	edges := 0
	for _, tp := range g.TermPairs {
		edges += len(tp)
	}
	if edges != 3 {
		t.Errorf("bipartite edges = %d, want 3", edges)
	}
}

func TestBuildCrossSourceOnly(t *testing.T) {
	c := testCorpus(
		"sony tv x100", // 0 source 0
		"sony tv x200", // 1 source 0
		"sony tv x100", // 2 source 1
	)
	src := []int{0, 0, 1}
	g := mustBuild(t, c, src, BatchOptions{CrossSourceOnly: true})
	if _, ok := pairID(g, 0, 1); ok {
		t.Error("same-source pair (0,1) must be excluded")
	}
	if _, ok := pairID(g, 0, 2); !ok {
		t.Error("cross-source pair (0,2) missing")
	}
	if _, ok := pairID(g, 1, 2); !ok {
		t.Error("cross-source pair (1,2) missing")
	}
	if g.NumPairs() != 2 {
		t.Errorf("NumPairs = %d, want 2", g.NumPairs())
	}
	x100 := termID(c, "x100")
	if g.Pt(x100) != 1 {
		t.Errorf("Pt(x100) = %d, want 1", g.Pt(x100))
	}
}

func TestBuildMaxTermRecordsCap(t *testing.T) {
	// "common" is in all four records; with a cap of 3 it generates no pairs.
	c := testCorpus(
		"common aa",
		"common aa",
		"common bb",
		"common bb",
	)
	g := mustBuild(t, c, nil, BatchOptions{MaxTermRecords: 3})
	// only aa (0,1) and bb (2,3) survive
	if g.NumPairs() != 2 {
		t.Fatalf("NumPairs = %d, want 2", g.NumPairs())
	}
	common := termID(c, "common")
	if g.Pt(common) != 0 {
		t.Errorf("capped term still has Pt = %d", g.Pt(common))
	}
}

func TestKeyPacksDistinctly(t *testing.T) {
	seen := map[uint64]bool{}
	for i := int32(0); i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			k := Key(i, j)
			if seen[k] {
				t.Fatalf("duplicate key for (%d,%d)", i, j)
			}
			seen[k] = true
			if k != Key(j, i) {
				t.Fatalf("Key not symmetric for (%d,%d)", i, j)
			}
		}
	}
}

// CheckLayout reports the first way g departs from the layout NewGraph
// documents, or nil: pair IDs ascend by (smallest term, key), each
// TermPairs[t] ascends by key, and PairTermPtr/PairTerms is the exact
// inverse of TermPairs with each pair's terms ascending. It is exported to
// the package's external tests.
func CheckLayout(g *Graph) error {
	np := g.NumPairs()
	ptr := g.PairTermPtr
	if len(g.TermPairs) != g.NumTerms {
		return fmt.Errorf("%d TermPairs rows for %d terms", len(g.TermPairs), g.NumTerms)
	}
	if len(ptr) != np+1 || ptr[0] != 0 || int(ptr[np]) != len(g.PairTerms) {
		return fmt.Errorf("PairTermPtr of length %d does not frame %d pairs over %d terms", len(ptr), np, len(g.PairTerms))
	}
	first := func(p int) int32 {
		if ptr[p] == ptr[p+1] {
			return int32(g.NumTerms)
		}
		return g.PairTerms[ptr[p]]
	}
	key := func(p int32) uint64 { return Key(g.Pairs[p].I, g.Pairs[p].J) }
	for p, pr := range g.Pairs {
		if pr.I < 0 || pr.I >= pr.J || int(pr.J) >= g.NumRecords {
			return fmt.Errorf("pair %d = %v is not I < J < %d", p, pr, g.NumRecords)
		}
		if ptr[p] > ptr[p+1] {
			return fmt.Errorf("pair %d: PairTermPtr descends", p)
		}
		terms := g.PairTerms[ptr[p]:ptr[p+1]]
		for k, t := range terms {
			if t < 0 || int(t) >= g.NumTerms || (k > 0 && terms[k-1] >= t) {
				return fmt.Errorf("pair %d: terms %v not strictly ascending in [0, %d)", p, terms, g.NumTerms)
			}
		}
		if p > 0 {
			fa, fb := first(p-1), first(p)
			if fa > fb || (fa == fb && key(int32(p-1)) >= key(int32(p))) {
				return fmt.Errorf("pairs %d and %d not ascending by (first term, key)", p-1, p)
			}
		}
	}
	refs := 0
	for t, pids := range g.TermPairs {
		refs += len(pids)
		for k, pid := range pids {
			if pid < 0 || int(pid) >= np {
				return fmt.Errorf("term %d lists pair %d of %d", t, pid, np)
			}
			if k > 0 && key(pids[k-1]) >= key(pid) {
				return fmt.Errorf("term %d: pairs %v not ascending by key", t, pids)
			}
			if _, ok := slices.BinarySearch(g.PairTerms[ptr[pid]:ptr[pid+1]], int32(t)); !ok {
				return fmt.Errorf("term %d lists pair %d, whose terms lack it", t, pid)
			}
		}
	}
	if refs != len(g.PairTerms) {
		return fmt.Errorf("TermPairs holds %d references, the transpose %d", refs, len(g.PairTerms))
	}
	return nil
}

func requireLayout(t *testing.T, what string, g *Graph) {
	t.Helper()
	if err := CheckLayout(g); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestPairsConsistentWithTermPairs checks that every pair shares its terms
// and that every graph builder lays its output out as NewGraph documents:
// BuildGraph, Truncate, Index.Materialize and the component graphs of
// Pending.Materialize. (engine.LocalizeComponent is checked in
// localize_test.go.)
func TestPairsConsistentWithTermPairs(t *testing.T) {
	c := testCorpus(
		"aa bb cc",
		"aa bb dd",
		"cc dd ee",
		"ee ff",
	)
	g := mustBuild(t, c, nil, BatchOptions{})
	requireLayout(t, "BuildGraph", g)
	// Every pair node referenced by a term must share that term, and every
	// term a pair's records share must list it.
	for pid, p := range g.Pairs {
		shared := textproc.IntersectSorted(c.Docs[p.I], c.Docs[p.J])
		if !slices.Equal(shared, g.PairTerms[g.PairTermPtr[pid]:g.PairTermPtr[pid+1]]) {
			t.Fatalf("pair %d: terms %v, records share %v", pid, g.PairTerms[g.PairTermPtr[pid]:g.PairTermPtr[pid+1]], shared)
		}
	}

	rng := rand.New(rand.NewSource(11))
	cfg := Config{
		Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: 0.5},
		Block:  BatchOptions{MaxTermRecords: 12, MinSharedTerms: 2},
	}
	texts, sources := randomTexts(rng, 160, 150)
	g = mustBuild(t, textproc.BuildCorpus(texts, cfg.Corpus), sources, cfg.Block)
	if g.NumPairs() < 20 {
		t.Fatalf("random corpus produced only %d pairs", g.NumPairs())
	}
	requireLayout(t, "BuildGraph", g)
	requireLayout(t, "Truncate", Truncate(g, g.NumPairs()/2))

	ix := New(cfg)
	for round := 0; round < 3; round++ {
		for i, text := range texts {
			if round == 0 || rng.Intn(8) == 0 {
				ix.Upsert(fmt.Sprintf("r%04d", i), text, sources[i])
			}
		}
		if round > 0 {
			ix.Delete(fmt.Sprintf("r%04d", rng.Intn(len(texts))))
		}
		requireLayout(t, "Index.Materialize", ix.Materialize().Graph)
		pd := ix.Pending()
		pd.Materialize()
		if len(pd.Comps) == 0 {
			t.Fatalf("round %d touched no component", round)
		}
		for _, comp := range pd.Comps {
			requireLayout(t, "Pending.Materialize", comp.Graph)
		}
		if !ix.Commit(pd) {
			t.Fatal("commit refused")
		}
		rng.Shuffle(len(texts), func(a, b int) { texts[a], texts[b] = texts[b], texts[a] })
	}
}

func TestBuildSourceMismatchError(t *testing.T) {
	c := testCorpus("aa bb", "aa cc")
	g, err := BuildGraph(c, []int{0}, BatchOptions{CrossSourceOnly: true})
	if err == nil || g != nil {
		t.Fatal("misaligned source labels must yield an error, not a panic or a graph")
	}
}

func TestBuildCanceledCheckpoint(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// A single giant block: every record shares "common", so enumeration is
	// quadratic — exactly the shape cancellation must be able to interrupt.
	texts := make([]string, 600)
	for i := range texts {
		texts[i] = fmt.Sprintf("common u%da u%db", i, i)
	}
	c := testCorpus(texts...)
	g, err := BuildGraph(c, nil, BatchOptions{Check: guard.FromContext(ctx)})
	if g != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled BuildGraph returned (%v, %v), want (nil, context.Canceled)", g, err)
	}
}

func TestTruncate(t *testing.T) {
	c := testCorpus(
		"aa bb cc",
		"aa bb dd",
		"cc dd ee",
		"aa cc ee",
	)
	g := mustBuild(t, c, nil, BatchOptions{})
	if g.NumPairs() < 3 {
		t.Fatalf("test corpus produced only %d pairs", g.NumPairs())
	}
	tr := Truncate(g, 2)
	if tr.NumPairs() != 2 {
		t.Fatalf("truncated to %d pairs, want 2", tr.NumPairs())
	}
	requireLayout(t, "Truncate", tr)
	// Kept pairs retain their IDs.
	if !slices.Equal(tr.Pairs, g.Pairs[:2]) {
		t.Errorf("truncated pairs %v, want the first two of %v", tr.Pairs, g.Pairs)
	}
	// TermPairs must reference only surviving IDs.
	for term, pairIDs := range tr.TermPairs {
		for _, pid := range pairIDs {
			if int(pid) >= tr.NumPairs() {
				t.Errorf("term %d references dropped pair %d", term, pid)
			}
		}
	}
	// Within-budget input is returned unchanged.
	if Truncate(g, g.NumPairs()) != g {
		t.Error("within-budget Truncate must be the identity")
	}
}

// termID returns a kept term's ID by binary search over the corpus's
// ascending Terms, or -1 when the corpus does not keep it.
func termID(c *textproc.Corpus, term string) int {
	if id, ok := slices.BinarySearch(c.Terms, term); ok {
		return id
	}
	return -1
}
