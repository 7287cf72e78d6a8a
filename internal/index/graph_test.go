package index

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/guard"
	"repro/internal/textproc"
)

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
	if _, ok := g.PairID(0, 1); !ok {
		t.Error("pair (0,1) missing")
	}
	if _, ok := g.PairID(0, 2); ok {
		t.Error("pair (0,2) must not be a candidate (no shared term)")
	}
	sony := c.Index["sony"]
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
	if _, ok := g.PairID(0, 1); ok {
		t.Error("same-source pair (0,1) must be excluded")
	}
	if _, ok := g.PairID(0, 2); !ok {
		t.Error("cross-source pair (0,2) missing")
	}
	if _, ok := g.PairID(1, 2); !ok {
		t.Error("cross-source pair (1,2) missing")
	}
	if g.NumPairs() != 2 {
		t.Errorf("NumPairs = %d, want 2", g.NumPairs())
	}
	x100 := c.Index["x100"]
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
	common := c.Index["common"]
	if g.Pt(common) != 0 {
		t.Errorf("capped term still has Pt = %d", g.Pt(common))
	}
}

func TestPairIDOrderInsensitive(t *testing.T) {
	c := testCorpus("aa bb", "aa cc")
	g := mustBuild(t, c, nil, BatchOptions{})
	a, ok1 := g.PairID(0, 1)
	b, ok2 := g.PairID(1, 0)
	if !ok1 || !ok2 || a != b {
		t.Error("PairID must be order-insensitive")
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

func TestPairsConsistentWithTermPairs(t *testing.T) {
	c := testCorpus(
		"aa bb cc",
		"aa bb dd",
		"cc dd ee",
		"ee ff",
	)
	g := mustBuild(t, c, nil, BatchOptions{})
	// Every pair node referenced by a term must share that term.
	for term, pairIDs := range g.TermPairs {
		for _, pid := range pairIDs {
			p := g.Pairs[pid]
			shared := textproc.IntersectSorted(c.Docs[p.I], c.Docs[p.J])
			found := false
			for _, s := range shared {
				if int(s) == term {
					found = true
				}
			}
			if !found {
				t.Fatalf("term %q linked to pair (%d,%d) that does not share it", c.Terms[term], p.I, p.J)
			}
		}
	}
	// Every candidate pair must actually share >=1 term and each shared
	// term must list it exactly once.
	for pid, p := range g.Pairs {
		shared := textproc.IntersectSorted(c.Docs[p.I], c.Docs[p.J])
		if len(shared) == 0 {
			t.Fatalf("pair %d shares no terms", pid)
		}
		for _, s := range shared {
			count := 0
			for _, q := range g.TermPairs[s] {
				if q == int32(pid) {
					count++
				}
			}
			if count != 1 {
				t.Fatalf("term %q lists pair %d %d times", c.Terms[s], pid, count)
			}
		}
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
	// Kept pairs retain their IDs and index entries.
	for pid, p := range tr.Pairs {
		if id, ok := tr.PairID(p.I, p.J); !ok || int(id) != pid {
			t.Errorf("pair %d lost or renumbered after truncation", pid)
		}
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
