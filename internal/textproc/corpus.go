package textproc

import (
	"fmt"
	"slices"
	"strings"
)

// Corpus is the tokenized view of a record collection. Term identifiers are
// dense indexes in [0, NumTerms), record token lists are sorted, de-duplicated
// term-ID sets. All downstream graph models (bipartite term/pair graph,
// record graph, term co-occurrence graph) are built from a Corpus.
type Corpus struct {
	// Terms maps term ID to surface form. It is strictly ascending, so a
	// binary search over it finds a surface form's ID.
	Terms []string
	// Docs holds, per record, the sorted set of term IDs it contains.
	Docs [][]int32
	// Seqs holds, per record, the original token-ID sequence (with
	// duplicates, in order). Needed by the term co-occurrence graph of the
	// TextRank/TW-IDF baseline, which slides a window over the sequence.
	Seqs [][]int32
	// DF holds the document frequency of each term.
	DF []int
}

// NumRecords returns the number of records in the corpus.
func (c *Corpus) NumRecords() int { return len(c.Docs) }

// NumTerms returns the number of distinct terms in the corpus.
func (c *Corpus) NumTerms() int { return len(c.Terms) }

// CorpusOptions controls corpus construction.
type CorpusOptions struct {
	Tokenize TokenizeOptions
	// MaxDFRatio removes terms occurring in more than this fraction of
	// records ("remove the terms that are very frequent", §VII-A).
	// Zero or negative disables the filter.
	MaxDFRatio float64
	// Stopwords are removed regardless of frequency — for domain knowledge
	// the df filter cannot see (e.g. "inc", "llc" in company data).
	Stopwords []string
}

// DefaultCorpusOptions mirrors the paper's pre-processing: tokenize and
// remove very frequent terms.
func DefaultCorpusOptions() CorpusOptions {
	return CorpusOptions{
		Tokenize:   DefaultTokenizeOptions(),
		MaxDFRatio: 0.15,
	}
}

// BuildCorpus tokenizes every text and assembles the corpus, applying the
// frequent-term filter. Term IDs are assigned in lexicographic order so that
// corpus construction is deterministic regardless of input order of equal
// texts.
//
// It is one interning pass: tokens are looked up in a single map and get a
// first-seen ID, and one string copy of each 64 KiB chunk of token bytes
// backs the surface form of every term first seen in it, so interning
// allocates per chunk, never per record, token or term (a live corpus
// therefore holds its chunks' token bytes, about the size of the texts
// themselves). Document
// frequencies count in a slice, deduplicated within a record by a
// last-seen stamp. The kept IDs are then sorted by surface form and one
// remap table rewrites every sequence. Seqs and Docs are cap-limited
// windows of two shared backing arrays.
func BuildCorpus(texts []string, opts CorpusOptions) *Corpus {
	const chunkBytes = 64 << 10
	n := len(texts)
	index := make(map[string]int)
	var (
		surfaces []string // first-seen ID -> surface form
		df       []int32  // first-seen ID -> document frequency
		stamp    []int32  // first-seen ID -> 1 + last record that counted it
		seq      []int32  // every record's first-seen IDs, back to back
		buf      []byte   // the pending chunk's token bytes
		ends     []int    // the pending chunk's token end offsets in buf
	)
	seqEnd := make([]int, n)
	first := 0 // first record of the pending chunk
	for i, txt := range texts {
		buf, ends = appendTokens(buf, ends, txt, opts.Tokenize)
		seqEnd[i] = len(seq) + len(ends)
		if len(buf) < chunkBytes && i < n-1 {
			continue
		}
		chunk := string(buf)
		k, start := 0, 0
		for r := first; r <= i; r++ {
			for ; len(seq) < seqEnd[r]; k++ {
				surface := chunk[start:ends[k]]
				start = ends[k]
				id, ok := index[surface]
				if !ok {
					id = len(surfaces)
					index[surface] = id
					surfaces = append(surfaces, surface)
					df = append(df, 0)
					stamp = append(stamp, 0)
				}
				if stamp[id] != int32(r+1) {
					stamp[id] = int32(r + 1)
					df[id]++
				}
				seq = append(seq, int32(id))
			}
		}
		buf, ends, first = buf[:0], ends[:0], i+1
	}

	stop := make(map[string]struct{}, len(opts.Stopwords))
	for _, w := range opts.Stopwords {
		stop[strings.ToLower(w)] = struct{}{}
	}

	maxDF := n + 1
	if opts.MaxDFRatio > 0 {
		maxDF = int(opts.MaxDFRatio * float64(n))
		if maxDF < 2 {
			maxDF = 2 // never filter so hard that nothing can match
		}
	}
	kept := make([]int32, 0, len(surfaces))
	for id, f := range df {
		if int(f) > maxDF {
			continue
		}
		if _, banned := stop[surfaces[id]]; banned {
			continue
		}
		kept = append(kept, int32(id))
	}
	slices.SortFunc(kept, func(a, b int32) int { return strings.Compare(surfaces[a], surfaces[b]) })

	c := &Corpus{
		Terms: make([]string, len(kept)),
		Docs:  make([][]int32, n),
		Seqs:  make([][]int32, n),
		DF:    make([]int, len(kept)),
	}
	remap := stamp // stamps are spent; reuse the slice as first-seen -> final ID
	for id := range remap {
		remap[id] = -1
	}
	for to, from := range kept {
		remap[from] = int32(to)
		c.Terms[to] = surfaces[from]
		c.DF[to] = int(df[from])
	}

	// Rewrite the sequences in place, dropping filtered terms, then derive
	// each record's term set from its sequence in the second array.
	w, lo := 0, 0
	for i, hi := range seqEnd {
		from := w
		for _, id := range seq[lo:hi] {
			if to := remap[id]; to >= 0 {
				seq[w] = to
				w++
			}
		}
		lo = hi
		c.Seqs[i] = seq[from:w:w]
	}
	docs := make([]int32, w)
	d := 0
	for i, s := range c.Seqs {
		doc := docs[d : d+len(s)]
		copy(doc, s)
		slices.Sort(doc)
		doc = slices.Compact(doc)
		c.Docs[i] = doc[:len(doc):len(doc)]
		d += len(doc)
	}
	return c
}

// SharedTerms returns the sorted intersection of the term sets of records i
// and j. Both inputs are sorted, so this is a linear merge.
func (c *Corpus) SharedTerms(i, j int) []int32 {
	return IntersectSorted(c.Docs[i], c.Docs[j])
}

// IntersectSorted intersects two ascending int32 slices.
func IntersectSorted(a, b []int32) []int32 {
	var out []int32
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			out = append(out, a[x])
			x++
			y++
		}
	}
	return out
}

// IntersectCount counts, without allocating, the size of the intersection of
// two ascending int32 slices.
func IntersectCount(a, b []int32) int {
	n := 0
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			n++
			x++
			y++
		}
	}
	return n
}

// Validate checks the whole corpus contract and returns an error describing
// the first violation found: Terms strictly ascending, every Seqs ID in
// range, each Docs entry the sorted distinct IDs of its Seqs entry, and DF
// the document frequencies of Docs. The tests hold every corpus they build
// to it.
func (c *Corpus) Validate() error {
	if len(c.Terms) != len(c.DF) {
		return fmt.Errorf("textproc: %d terms but %d df entries", len(c.Terms), len(c.DF))
	}
	if len(c.Docs) != len(c.Seqs) {
		return fmt.Errorf("textproc: %d docs but %d seqs", len(c.Docs), len(c.Seqs))
	}
	for id, t := range c.Terms {
		if id > 0 && c.Terms[id-1] >= t {
			return fmt.Errorf("textproc: terms not strictly ascending at %d (%q)", id, t)
		}
	}
	var set []int32
	for i, seq := range c.Seqs {
		for _, id := range seq {
			if id < 0 || int(id) >= len(c.Terms) {
				return fmt.Errorf("textproc: seq %d contains out-of-range term %d", i, id)
			}
		}
		set = append(set[:0], seq...)
		slices.Sort(set)
		if !slices.Equal(c.Docs[i], slices.Compact(set)) {
			return fmt.Errorf("textproc: doc %d is not the sorted term set of its sequence", i)
		}
	}
	df := make([]int, len(c.Terms))
	for _, doc := range c.Docs {
		for _, id := range doc {
			df[id]++
		}
	}
	for t, f := range df {
		if f != c.DF[t] {
			return fmt.Errorf("textproc: term %q df mismatch: stored %d, actual %d", c.Terms[t], c.DF[t], f)
		}
	}
	return nil
}
