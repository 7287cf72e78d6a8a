package textproc

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"

	"repro/internal/parallel"
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
	// Workers bounds the goroutines the build fans out across, one
	// contiguous range of records each. The corpus is identical for every
	// setting. Zero selects GOMAXPROCS.
	Workers int
}

// BuildCorpus tokenizes every text and assembles the corpus, applying the
// frequent-term filter. Term IDs are assigned in lexicographic order so that
// corpus construction is deterministic regardless of input order of equal
// texts, and the result is the same for every Workers setting.
//
// The records are split into one contiguous range per worker. Each range
// interns its tokens through a vocab of its own (a flat hash table over a
// byte arena, see vocab) to first-seen IDs, counts document frequencies
// and keeps its ID sequence. The vocabs then merge in range order into the
// first one, which sums the frequencies: a record never spans two ranges,
// so each range's per-record dedup is already exact. The kept terms are
// ordered once by surface form (sortBySurface), and each range rewrites its
// sequences to final IDs and derives its records' term sets in parallel.
// Terms are substrings of one string holding the kept surfaces in order;
// Seqs and Docs are cap-limited windows of two backing arrays per range.
func BuildCorpus(texts []string, opts CorpusOptions) *Corpus {
	n := len(texts)
	ranges := min(parallel.Workers(opts.Workers), max(n, 1))
	shards := make([]shard, ranges)
	for k := range shards {
		shards[k].lo, shards[k].hi = n*k/ranges, n*(k+1)/ranges
	}
	fanOut := func(fn func(s *shard)) {
		parallel.ForGrain(ranges, ranges, 1, func(lo, hi int) {
			for k := lo; k < hi; k++ {
				fn(&shards[k])
			}
		})
	}
	fanOut(func(s *shard) { s.scan(texts, opts.Tokenize) })

	// Merge every later range's vocab into the first; toGlobal maps a
	// range's local IDs to the merged ones.
	v := &shards[0].vocab
	for k := 1; k < ranges; k++ {
		s := &shards[k]
		s.toGlobal = make([]int32, s.vocab.size())
		for l := range s.toGlobal {
			g := v.intern(s.vocab.surface(int32(l)))
			v.stat[g].df += s.vocab.stat[l].df
			s.toGlobal[l] = g
		}
		s.vocab = vocab{}
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
	kept := make([]int32, 0, v.size())
	keptBytes := 0
	for id, st := range v.stat {
		if int(st.df) > maxDF {
			continue
		}
		if _, banned := stop[string(v.surface(int32(id)))]; banned {
			continue
		}
		kept = append(kept, int32(id))
		keptBytes += len(v.surface(int32(id)))
	}
	v.sortBySurface(kept)

	c := &Corpus{
		Terms: make([]string, len(kept)),
		Docs:  make([][]int32, n),
		Seqs:  make([][]int32, n),
		DF:    make([]int, len(kept)),
	}
	var all strings.Builder
	all.Grow(keptBytes)
	for _, id := range kept {
		all.Write(v.surface(id))
	}
	final := make([]int32, v.size()) // merged ID -> final ID, -1 if dropped
	for id := range final {
		final[id] = -1
	}
	terms, off := all.String(), 0
	for to, id := range kept {
		end := off + len(v.surface(id))
		c.Terms[to] = terms[off:end]
		c.DF[to] = int(v.stat[id].df)
		final[id] = int32(to)
		off = end
	}
	fanOut(func(s *shard) { s.emit(c, final) })
	return c
}

// shard is one worker's contiguous range of records [lo, hi) and what the
// build derives from it.
type shard struct {
	lo, hi int
	vocab  vocab
	// seq holds the range's token IDs back to back; ends[r] is where record
	// lo+r's tokens end in it.
	seq  []int32
	ends []int
	// toGlobal maps the range's vocab IDs to the merged vocab's; nil for
	// the first range, whose vocab is the merged one.
	toGlobal []int32
}

// scan tokenizes and interns the range's records, counting each term's
// document frequency once per record by a last-seen stamp.
func (s *shard) scan(texts []string, opts TokenizeOptions) {
	texts = texts[s.lo:s.hi]
	// A token spans at least max(MinLen, 1) bytes of its text and is
	// followed by a separator or the text's end, so this bound sizes seq
	// once.
	width, bound := max(opts.MinLen, 1)+1, 0
	for _, txt := range texts {
		bound += (len(txt) + 1) / width
	}
	s.seq = make([]int32, 0, bound)
	s.ends = make([]int, len(texts))
	v := &s.vocab
	v.init()
	var (
		buf     []byte // the record's token bytes
		tokEnds []int  // the record's token end offsets in buf
	)
	for r, txt := range texts {
		buf, tokEnds = appendTokens(buf[:0], tokEnds[:0], txt, opts)
		start := 0
		for _, end := range tokEnds {
			id := v.intern(buf[start:end])
			start = end
			if st := &v.stat[id]; st.last != int32(r+1) {
				st.last = int32(r + 1)
				st.df++
			}
			s.seq = append(s.seq, id)
		}
		s.ends[r] = len(s.seq)
	}
}

// emit rewrites the range's sequences to final term IDs in place, dropping
// filtered terms, and fills its records' Seqs and Docs in c. final maps a
// merged vocab ID to its final ID, or -1 for a filtered term.
func (s *shard) emit(c *Corpus, final []int32) {
	remap := final
	if s.toGlobal != nil {
		for l, g := range s.toGlobal {
			s.toGlobal[l] = final[g]
		}
		remap = s.toGlobal
	}
	seqs := c.Seqs[s.lo:s.hi]
	w, lo := 0, 0
	for r, hi := range s.ends {
		from := w
		for _, id := range s.seq[lo:hi] {
			if to := remap[id]; to >= 0 {
				s.seq[w] = to
				w++
			}
		}
		lo = hi
		seqs[r] = s.seq[from:w:w]
	}
	docs := make([]int32, w)
	d := 0
	for r, seq := range seqs {
		doc := docs[d : d+len(seq)]
		copy(doc, seq)
		sortIDs(doc)
		doc = slices.Compact(doc)
		c.Docs[s.lo+r] = doc[:len(doc):len(doc)]
		d += len(doc)
	}
}

// sortIDs sorts a record's term IDs: by insertion when the record is
// short, as most are, and by slices.Sort otherwise.
func sortIDs(ids []int32) {
	if len(ids) > 32 {
		slices.Sort(ids)
		return
	}
	for i := 1; i < len(ids); i++ {
		x, j := ids[i], i
		for ; j > 0 && ids[j-1] > x; j-- {
			ids[j] = ids[j-1]
		}
		ids[j] = x
	}
}

// vocabSeed keys the vocab hash. The hash only places surfaces in the
// table; no output depends on it, so a per-process seed is safe.
var vocabSeed = maphash.MakeSeed()

// vocab interns token surfaces to dense first-seen IDs. Every distinct
// surface is stored once in arena, ID i at arena[offs[i]:offs[i+1]], and
// found through slots, an open-addressing table with linear probing. A
// slot packs the surface's 32-bit hash tag above its ID+1 (0 marks an
// empty slot) and sits at its tag modulo the table size, so the table
// grows without rehashing a surface. The load stays at most one half.
// Every array grows by doubling, so a build allocates a few times per
// doubling of the vocabulary and about twice its final size in all.
type vocab struct {
	slots []uint64
	arena []byte
	offs  []int
	stat  []termStat
}

// termStat is one term's document frequency and 1 + the last record
// (within the range) that counted it.
type termStat struct{ df, last int32 }

func (v *vocab) init() {
	const slots = 1 << 10
	v.slots = make([]uint64, slots)
	v.offs = append(make([]int, 0, slots/2+2), 0)
	v.stat = make([]termStat, 0, slots/2+1)
	v.arena = make([]byte, 0, 4*slots)
}

// size returns the number of distinct surfaces.
func (v *vocab) size() int { return len(v.stat) }

// surface returns ID id's bytes.
func (v *vocab) surface(id int32) []byte { return v.arena[v.offs[id]:v.offs[id+1]] }

// intern returns tok's ID, adding tok (by copy) if it is new.
func (v *vocab) intern(tok []byte) int32 {
	tag := uint32(maphash.Bytes(vocabSeed, tok))
	mask := uint32(len(v.slots) - 1)
	i := tag & mask
	for {
		slot := v.slots[i]
		if slot == 0 {
			break
		}
		if uint32(slot>>32) == tag {
			if id := int32(uint32(slot)) - 1; string(v.surface(id)) == string(tok) {
				return id
			}
		}
		i = (i + 1) & mask
	}
	id := int32(v.size())
	v.slots[i] = uint64(tag)<<32 | uint64(id+1)
	if cap(v.arena)-len(v.arena) < len(tok) {
		v.arena = slices.Grow(v.arena, len(v.arena)+len(tok))
	}
	v.arena = append(v.arena, tok...)
	v.offs = append(v.offs, len(v.arena))
	v.stat = append(v.stat, termStat{})
	if 2*v.size() > len(v.slots) {
		v.grow()
	}
	return id
}

// grow doubles the table, placing each slot by its stored tag, and makes
// room in the per-ID arrays for the IDs the new table can hold.
func (v *vocab) grow() {
	slots := make([]uint64, 2*len(v.slots))
	mask := uint32(len(slots) - 1)
	for _, slot := range v.slots {
		if slot == 0 {
			continue
		}
		i := uint32(slot>>32) & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = slot
	}
	v.slots = slots
	ids := len(slots)/2 + 1
	v.offs = slices.Grow(v.offs, ids+1-len(v.offs))
	v.stat = slices.Grow(v.stat, ids-len(v.stat))
}

// sortBySurface sorts ids by the byte order of their surfaces. An LSD
// radix sort orders them by each surface's first 8 bytes, read big-endian
// and zero-padded: a surface that sorts before another has a key no
// greater than the other's, so the keys order the surfaces except within
// runs of equal keys, which bytes.Compare finishes.
func (v *vocab) sortBySurface(ids []int32) {
	type keyed struct {
		key uint64
		id  int32
	}
	a, b := make([]keyed, len(ids)), make([]keyed, len(ids))
	var counts [8][256]int
	for k, id := range ids {
		var key uint64
		if s := v.surface(id); len(s) >= 8 {
			key = binary.BigEndian.Uint64(s)
		} else {
			for j := 0; j < 8; j++ {
				key <<= 8
				if j < len(s) {
					key |= uint64(s[j])
				}
			}
		}
		a[k] = keyed{key, id}
		for d := range counts {
			counts[d][byte(key>>(8*d))]++
		}
	}
	for d := range counts {
		count := &counts[d]
		if len(a) == 0 || count[byte(a[0].key>>(8*d))] == len(a) {
			continue // every key has the same digit: the pass is the identity
		}
		pos := 0
		for digit, c := range count {
			count[digit] = pos
			pos += c
		}
		for _, e := range a {
			digit := byte(e.key >> (8 * d))
			b[count[digit]] = e
			count[digit]++
		}
		a, b = b, a
	}
	for lo := 0; lo < len(a); {
		hi := lo + 1
		for hi < len(a) && a[hi].key == a[lo].key {
			hi++
		}
		if hi-lo > 1 {
			slices.SortFunc(a[lo:hi], func(x, y keyed) int {
				return bytes.Compare(v.surface(x.id), v.surface(y.id))
			})
		}
		for ; lo < hi; lo++ {
			ids[lo] = a[lo].id
		}
	}
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
