package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/textproc"
)

// referenceBuild is a verbatim copy of the historical serial two-pass
// blocking.Build (map-based shared counts, term-major enumeration). It is
// the oracle the parallel BuildGraph and the mutable Index are pinned
// against: "bit-identical to today's blocking.Build output" means equal to
// this function's output, field for field.
func referenceBuild(c *textproc.Corpus, source []int, opts BatchOptions) *Graph {
	n := c.NumRecords()
	inv := make([][]int32, c.NumTerms())
	for r, doc := range c.Docs {
		for _, t := range doc {
			inv[t] = append(inv[t], int32(r))
		}
	}
	g := &Graph{
		NumRecords: n,
		NumTerms:   c.NumTerms(),
		TermPairs:  make([][]int32, c.NumTerms()),
	}
	ids := make(map[uint64]int32)
	termEligible := func(recs []int32) bool {
		if len(recs) < 2 {
			return false
		}
		return opts.MaxTermRecords <= 0 || len(recs) <= opts.MaxTermRecords
	}
	shared := make(map[uint64]int32)
	for _, recs := range inv {
		if !termEligible(recs) {
			continue
		}
		for a := 0; a < len(recs); a++ {
			for b := a + 1; b < len(recs); b++ {
				ri, rj := recs[a], recs[b]
				if opts.CrossSourceOnly && source[ri] == source[rj] {
					continue
				}
				shared[Key(ri, rj)]++
			}
		}
	}
	minShared := int32(opts.MinSharedTerms)
	if minShared < 1 {
		minShared = 1
	}
	for t, recs := range inv {
		if !termEligible(recs) {
			continue
		}
		for a := 0; a < len(recs); a++ {
			for b := a + 1; b < len(recs); b++ {
				ri, rj := recs[a], recs[b]
				if opts.CrossSourceOnly && source[ri] == source[rj] {
					continue
				}
				key := Key(ri, rj)
				if shared[key] < minShared {
					continue
				}
				if opts.MinJaccard > 0 {
					union := len(c.Docs[ri]) + len(c.Docs[rj]) - int(shared[key])
					if union <= 0 || float64(shared[key])/float64(union) < opts.MinJaccard {
						continue
					}
				}
				id, ok := ids[key]
				if !ok {
					id = int32(len(g.Pairs))
					g.Pairs = append(g.Pairs, Pair{I: ri, J: rj})
					ids[key] = id
				}
				g.TermPairs[t] = append(g.TermPairs[t], id)
			}
		}
	}
	// The pair→term transpose: terms are visited ascending, so each
	// pair's list comes out ascending.
	pairTerms := make([][]int32, len(g.Pairs))
	for t, pairIDs := range g.TermPairs {
		for _, id := range pairIDs {
			pairTerms[id] = append(pairTerms[id], int32(t))
		}
	}
	g.PairTermPtr = make([]int32, 1, len(g.Pairs)+1)
	for _, terms := range pairTerms {
		g.PairTerms = append(g.PairTerms, terms...)
		g.PairTermPtr = append(g.PairTermPtr, int32(len(g.PairTerms)))
	}
	return g
}

// requireGraphsEqual compares two graphs field by field, with empty and nil
// slices considered equal (append-built vs make-built adjacency rows), and
// checks got's layout.
func requireGraphsEqual(t *testing.T, want, got *Graph) {
	t.Helper()
	if err := CheckLayout(got); err != nil {
		t.Fatal(err)
	}
	if want.NumRecords != got.NumRecords || want.NumTerms != got.NumTerms {
		t.Fatalf("shape mismatch: want %d records/%d terms, got %d/%d",
			want.NumRecords, want.NumTerms, got.NumRecords, got.NumTerms)
	}
	if !reflect.DeepEqual(normPairs(want.Pairs), normPairs(got.Pairs)) {
		t.Fatalf("pairs mismatch:\nwant %v\ngot  %v", want.Pairs, got.Pairs)
	}
	if len(want.TermPairs) != len(got.TermPairs) {
		t.Fatalf("termpairs length mismatch: want %d, got %d", len(want.TermPairs), len(got.TermPairs))
	}
	for tt := range want.TermPairs {
		w, g := want.TermPairs[tt], got.TermPairs[tt]
		if len(w) == 0 && len(g) == 0 {
			continue
		}
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("termpairs[%d] mismatch: want %v, got %v", tt, w, g)
		}
	}
	if !reflect.DeepEqual(normInt32(want.PairTermPtr), normInt32(got.PairTermPtr)) {
		t.Fatalf("pairtermptr mismatch: want %v, got %v", want.PairTermPtr, got.PairTermPtr)
	}
	if !reflect.DeepEqual(normInt32(want.PairTerms), normInt32(got.PairTerms)) {
		t.Fatalf("pairterms mismatch: want %v, got %v", want.PairTerms, got.PairTerms)
	}
}

func normPairs(p []Pair) []Pair {
	if len(p) == 0 {
		return nil
	}
	return p
}

func normInt32(p []int32) []int32 {
	if len(p) == 0 {
		return nil
	}
	return p
}

// randomTexts generates a corpus of synthetic token strings with duplicate
// structure: clusters of records share a base token set with per-record
// mutations, over a small vocabulary so frequent-term filters and the
// MaxTermRecords cap actually engage.
func randomTexts(rng *rand.Rand, n, vocab int) ([]string, []int) {
	texts := make([]string, 0, n)
	sources := make([]int, 0, n)
	for len(texts) < n {
		k := 3 + rng.Intn(6)
		base := make([]string, k)
		for i := range base {
			base[i] = fmt.Sprintf("w%d", rng.Intn(vocab))
		}
		cluster := 1 + rng.Intn(3)
		for c := 0; c < cluster && len(texts) < n; c++ {
			toks := append([]string(nil), base...)
			if rng.Intn(2) == 0 && len(toks) > 1 {
				toks[rng.Intn(len(toks))] = fmt.Sprintf("w%d", rng.Intn(vocab))
			}
			if rng.Intn(2) == 0 {
				toks = append(toks, fmt.Sprintf("w%d", rng.Intn(vocab)))
			}
			text := ""
			for i, tk := range toks {
				if i > 0 {
					text += " "
				}
				text += tk
			}
			texts = append(texts, text)
			sources = append(sources, c%2)
		}
	}
	return texts, sources
}

// TestBuildGraphMatchesReference pins the parallel batch builder to the
// historical serial enumeration, bit for bit, across worker counts, filter
// settings and single/multi-source corpora.
func TestBuildGraphMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 20 + rng.Intn(180)
		vocab := 10 + rng.Intn(60)
		texts, sources := randomTexts(rng, n, vocab)
		c := textproc.BuildCorpus(texts, textproc.CorpusOptions{
			Tokenize:   textproc.DefaultTokenizeOptions(),
			MaxDFRatio: []float64{0, 0.12, 0.5}[trial%3],
		})
		opts := BatchOptions{
			CrossSourceOnly: trial%4 == 1,
			MaxTermRecords:  []int{0, 8, 64}[trial%3],
			MinSharedTerms:  []int{0, 1, 2}[trial%3],
			MinJaccard:      []float64{0, 0.2, 0.4}[(trial/3)%3],
		}
		want := referenceBuild(c, sources, opts)
		for _, workers := range []int{1, 2, 4} {
			opts.Workers = workers
			got, err := BuildGraph(c, sources, opts)
			if err != nil {
				t.Fatalf("trial %d workers %d: %v", trial, workers, err)
			}
			requireGraphsEqual(t, want, got)
		}
	}
}
