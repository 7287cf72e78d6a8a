package graph

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/textproc"
)

// Count returns the current number of disjoint sets: the roots.
func (u *UnionFind) Count() int {
	n := 0
	for i, p := range u.parent {
		if int(p) == i {
			n++
		}
	}
	return n
}

func TestUnionFindBasics(t *testing.T) {
	u := NewUnionFind(5)
	if u.Count() != 5 {
		t.Fatalf("Count = %d, want 5", u.Count())
	}
	if !u.Union(0, 1) {
		t.Error("first union must report merge")
	}
	if u.Union(1, 0) {
		t.Error("repeated union must report no merge")
	}
	u.Union(1, 2)
	if u.Find(0) != u.Find(2) {
		t.Error("0 and 2 must be connected transitively")
	}
	if u.Find(0) == u.Find(3) {
		t.Error("0 and 3 must not be connected")
	}
	if u.Count() != 3 {
		t.Errorf("Count = %d, want 3", u.Count())
	}
}

// TestUnionFindMatchesNaive compares against a brute-force reachability
// model over random union sequences.
func TestUnionFindMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		u := NewUnionFind(n)
		label := make([]int, n)
		for i := range label {
			label[i] = i
		}
		for op := 0; op < 30; op++ {
			a, b := rng.Intn(n), rng.Intn(n)
			u.Union(a, b)
			la, lb := label[a], label[b]
			if la != lb {
				for i := range label {
					if label[i] == lb {
						label[i] = la
					}
				}
			}
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if (u.Find(i) == u.Find(j)) != (label[i] == label[j]) {
					t.Fatalf("trial %d: Find(%d) == Find(%d) mismatch", trial, i, j)
				}
			}
		}
	}
}

func TestTermGraphWindow(t *testing.T) {
	c := textproc.BuildCorpus(
		[]string{"aa bb cc dd"},
		textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
	)
	g2 := NewTermGraph(c, 2)
	// window 2: aa-bb, bb-cc, cc-dd
	if g2.NumEdges() != 3 {
		t.Errorf("window 2 edges = %d, want 3", g2.NumEdges())
	}
	g3 := NewTermGraph(c, 3)
	// window 3 adds aa-cc, bb-dd
	if g3.NumEdges() != 5 {
		t.Errorf("window 3 edges = %d, want 5", g3.NumEdges())
	}
	g4 := NewTermGraph(c, 4)
	if g4.NumEdges() != 6 {
		t.Errorf("window 4 edges = %d, want 6 (complete graph)", g4.NumEdges())
	}
}

func TestTermGraphSymmetricNoSelfLoops(t *testing.T) {
	c := textproc.BuildCorpus(
		[]string{"aa bb aa cc", "bb dd bb", "ee"},
		textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
	)
	g := NewTermGraph(c, 3)
	for t1, nbrs := range g.Adj {
		for _, t2 := range nbrs {
			if int(t2) == t1 {
				t.Fatalf("self loop at term %d", t1)
			}
			found := false
			for _, back := range g.Adj[t2] {
				if int(back) == t1 {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge %d-%d not symmetric", t1, t2)
			}
		}
	}
	// "ee" appears alone in its record and never co-occurs.
	ee := termID(c, "ee")
	if g.Degree(ee) != 0 {
		t.Errorf("isolated term has degree %d", g.Degree(ee))
	}
}

func TestTermGraphRepeatedTokenNoSelfEdge(t *testing.T) {
	c := textproc.BuildCorpus(
		[]string{"aa aa aa"},
		textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
	)
	g := NewTermGraph(c, 3)
	if g.NumEdges() != 0 {
		t.Errorf("repeated token produced %d edges, want 0", g.NumEdges())
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
