package index

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/textproc"
)

// Config parameterizes a mutable Index. The corpus options must match the
// pipeline's (tokenizer, MaxDFRatio, MinDF, stopwords) for Materialize to
// reproduce textproc.BuildCorpus bit for bit; the block options carry the
// candidate filters. Block.Check and Block.Workers apply to the full
// pair-table rebuild fallback; single-record mutations are delta-sized and
// run inline.
type Config struct {
	Corpus textproc.CorpusOptions
	Block  BatchOptions
}

// Delta reports what one mutation changed in the candidate pair set. Pair
// endpoints are external record IDs. When the mutation's blast radius made
// an incremental update more expensive than starting over (a frequency
// threshold crossed on a high-df term), the index rebuilds the pair table
// instead and reports only Rebuilt — the per-pair lists would be the whole
// corpus. The root package exports it as er.CollectionDelta.
type Delta struct {
	// AddedPairs lists candidate pairs the mutation created.
	AddedPairs [][2]string
	// RemovedPairs lists candidate pairs the mutation destroyed.
	RemovedPairs [][2]string
	// Touched lists the external IDs whose candidate rows were recomputed.
	Touched []string
	// Rebuilt reports that the pair table was rebuilt from scratch instead
	// of patched (AddedPairs/RemovedPairs are nil in that case).
	Rebuilt bool
}

// View is one materialized snapshot of the index: a Corpus and candidate
// Graph bit-identical to what textproc.BuildCorpus + BuildGraph would
// produce over the live records in ascending external-ID order, plus the
// position-aligned bookkeeping a resolver needs.
type View struct {
	Corpus  *textproc.Corpus
	Graph   *Graph
	Sources []int
	// IDs maps record position to external ID (ascending).
	IDs []string
}

// Index is a mutable inverted index over a keyed record collection that
// maintains the blocking survivor set incrementally: Upsert and Delete
// re-derive only the candidate rows their blast radius can have changed —
// the mutated record, plus every record holding a term whose eligibility
// flipped (document-frequency thresholds move with df and with the corpus
// size). Two read paths sit on top: Materialize assembles a Corpus + Graph
// bit-identical to a from-scratch batch build, in time proportional to the
// corpus surface (the cold/debug export), and Pending/Commit hand a resident
// resolver only the components its mutations touched (see resident.go).
//
// Not safe for concurrent use; callers serialize access.
type Index struct {
	cfg  Config
	stop map[string]struct{}

	// Interned vocabulary. Term IDs (iids) are stable across mutations;
	// lexicographic order is maintained lazily in sorted/rankOf.
	surfaces   []string
	vocab      map[string]int32
	df         []int32
	stopped    []bool
	postings   [][]int32 // iid -> sorted live rids
	vocabDirty bool
	sortedIIDs []int32 // iids in lexicographic surface order
	rankOf     []int32 // iid -> position in sortedIIDs

	// Records. Handles (rids) are stable; deleted rids go on the free list.
	extID   []string // rid -> external id ("" when free)
	byID    map[string]int32
	seqs    [][]int32 // rid -> token iid sequence (with duplicates, in order)
	terms   [][]int32 // rid -> sorted unique iids
	sources []int32
	docLen  []int32 // rid -> count of corpus-kept terms
	freeRid []int32
	live    int

	// Survivor pair table: every candidate pair that passes the blocking
	// filters under the current corpus state, keyed by record handles.
	pairs map[uint64]int32 // Key(ridA, ridB) -> shared eligible-term count
	adj   [][]int32        // rid -> partner rids; staleness resolved against pairs

	// Mutation scratch, reused across calls.
	cnt    []int32
	marked []bool

	// Live record handles in ascending external-ID order, maintained on
	// every insert and delete.
	order []int32

	// Touched-record bookkeeping: dirty lists, without duplicates, the
	// handles (live or freed) of every record whose candidate row a
	// mutation recomputed since the last Commit, and both endpoints of
	// every pair it added or removed. seq counts mutations, so a Pending
	// can tell it was overtaken.
	seq     uint64
	dirty   []int32
	isDirty []bool // rid -> listed in dirty

	// Resident state of the committed resolve (resident.go): the global
	// pair order, each record's component slot, and the slot allocator.
	res resident
	pos []int32 // rid -> position scratch, refreshed by Pending
}

// New returns an empty index.
func New(cfg Config) *Index {
	stop := make(map[string]struct{}, len(cfg.Corpus.Stopwords))
	for _, w := range cfg.Corpus.Stopwords {
		stop[strings.ToLower(w)] = struct{}{}
	}
	return &Index{
		cfg:   cfg,
		stop:  stop,
		vocab: make(map[string]int32),
		byID:  make(map[string]int32),
		pairs: make(map[uint64]int32),
	}
}

// Len returns the number of live records.
func (ix *Index) Len() int { return ix.live }

// maxKeptDF returns the frequent-term threshold for the current corpus
// size — the exact formula of textproc.BuildCorpus.
func (ix *Index) maxKeptDF() int32 { return ix.maxKeptDFAt(ix.live) }

// keptAt reports whether a term with document frequency f survives the
// corpus filters (frequency band + stopword list) at threshold maxDF.
func (ix *Index) keptAt(iid, f, maxDF int32) bool {
	return f >= 1 && f >= int32(ix.cfg.Corpus.MinDF) && f <= maxDF && !ix.stopped[iid]
}

// eligAt reports whether a term with document frequency f participates in
// candidate enumeration at threshold maxDF (corpus-kept, df >= 2, under
// the MaxTermRecords cap).
func (ix *Index) eligAt(iid, f, maxDF int32) bool {
	if !ix.keptAt(iid, f, maxDF) || f < 2 {
		return false
	}
	return ix.cfg.Block.MaxTermRecords <= 0 || f <= int32(ix.cfg.Block.MaxTermRecords)
}

// intern returns the stable term ID for a surface form.
func (ix *Index) intern(surface string) int32 {
	if iid, ok := ix.vocab[surface]; ok {
		return iid
	}
	iid := int32(len(ix.surfaces))
	ix.vocab[surface] = iid
	ix.surfaces = append(ix.surfaces, surface)
	ix.df = append(ix.df, 0)
	_, banned := ix.stop[surface]
	ix.stopped = append(ix.stopped, banned)
	ix.postings = append(ix.postings, nil)
	ix.vocabDirty = true
	return iid
}

// Upsert inserts or replaces the record with the given external ID and
// returns what changed in the candidate pair set.
func (ix *Index) Upsert(id, text string, source int) Delta {
	toks := textproc.Tokenize(text, ix.cfg.Corpus.Tokenize)
	seq := make([]int32, len(toks))
	for i, tk := range toks {
		seq[i] = ix.intern(tk)
	}
	terms := uniqueSorted(seq)

	rid, exists := ix.byID[id]
	var oldTerms []int32
	nBefore := ix.live
	if exists {
		oldTerms = ix.terms[rid]
	} else {
		rid = ix.allocRid(id)
		ix.live++
		ix.orderInsert(rid)
	}
	return ix.applyMutation(rid, id, oldTerms, terms, seq, int32(source), ix.maxKeptDFAt(nBefore), true)
}

// Delete removes the record with the given external ID, reporting whether
// it existed and what its removal changed in the candidate pair set.
func (ix *Index) Delete(id string) (Delta, bool) {
	rid, ok := ix.byID[id]
	if !ok {
		return Delta{}, false
	}
	maxBefore := ix.maxKeptDF()
	oldTerms := ix.terms[rid]
	ix.live--
	ix.orderRemove(id)
	d := ix.applyMutation(rid, id, oldTerms, nil, nil, 0, maxBefore, false)
	ix.releaseRid(rid, id)
	return d, true
}

// maxKeptDFAt is maxKeptDF for an explicit corpus size.
func (ix *Index) maxKeptDFAt(n int) int32 {
	if ix.cfg.Corpus.MaxDFRatio <= 0 {
		return int32(n + 1)
	}
	m := int32(ix.cfg.Corpus.MaxDFRatio * float64(n))
	if m < 2 {
		m = 2
	}
	return m
}

// applyMutation performs the shared structural update for Upsert/Delete:
// swap the record's terms, adjust document frequencies and postings, find
// every term whose eligibility flipped (df moved, or the frequency
// thresholds moved with the corpus size), patch docLens, and re-derive the
// candidate rows of the affected records. keep reports whether the record
// remains live (upsert) or is being removed (delete).
func (ix *Index) applyMutation(rid int32, id string, oldTerms, newTerms, newSeq []int32, source, maxBefore int32, keep bool) Delta {
	ix.seq++
	maxAfter := ix.maxKeptDF()

	// dfTouched: terms whose df changes (symmetric difference of the old
	// and new term sets). Record each one's pre-mutation state.
	type termFlip struct {
		iid          int32
		wasKept, was bool // corpus-kept / block-eligible before
	}
	var flips []termFlip
	noteBefore := func(t int32) {
		f := ix.df[t]
		flips = append(flips, termFlip{
			iid:     t,
			wasKept: ix.keptAt(t, f, maxBefore),
			was:     ix.eligAt(t, f, maxBefore),
		})
	}
	forSymDiff(oldTerms, newTerms, func(t int32, inOld bool) {
		noteBefore(t)
		if inOld {
			ix.postingRemove(t, rid)
		} else {
			ix.postingAdd(t, rid)
		}
	})

	// Threshold shift: when the kept band moved with the corpus size, any
	// term sitting between the old and new thresholds flips. An O(V) scan
	// finds them; the band moves at most every ~1/MaxDFRatio mutations and
	// V is small next to the blocking scan this replaces. With no ratio cap
	// the threshold n+1 moves on every mutation but exceeds every possible
	// df, so no term can flip and the scan is skipped.
	if maxBefore != maxAfter && ix.cfg.Corpus.MaxDFRatio > 0 {
		lo, hi := maxBefore, maxAfter
		if lo > hi {
			lo, hi = hi, lo
		}
		inDiff := func(t int32) bool {
			for _, fl := range flips {
				if fl.iid == t {
					return true
				}
			}
			return false
		}
		for t := int32(0); t < int32(len(ix.df)); t++ {
			f := ix.df[t]
			if f > lo && f <= hi && !ix.stopped[t] && !inDiff(t) {
				flips = append(flips, termFlip{
					iid:     t,
					wasKept: ix.keptAt(t, f, maxBefore),
					was:     ix.eligAt(t, f, maxBefore),
				})
			}
		}
	}

	// Swap the record body.
	ix.terms[rid] = newTerms
	ix.seqs[rid] = newSeq
	ix.sources[rid] = source

	// Diff each candidate term's eligibility, patch docLens for kept
	// flips, and collect the affected records.
	affected := make(map[int32]struct{})
	if keep {
		affected[rid] = struct{}{}
	}
	//lint:ignore guardloop bounded by one record's term flips × capped posting lists; a single-record mutation never approaches batch scale
	for _, fl := range flips {
		f := ix.df[fl.iid]
		isKept := ix.keptAt(fl.iid, f, maxAfter)
		isElig := ix.eligAt(fl.iid, f, maxAfter)
		if isKept != fl.wasKept {
			d := int32(1)
			if !isKept {
				d = -1
			}
			for _, q := range ix.postings[fl.iid] {
				ix.docLen[q] += d
			}
		}
		if isKept != fl.wasKept || isElig != fl.was {
			for _, q := range ix.postings[fl.iid] {
				affected[q] = struct{}{}
			}
		}
	}
	// The mutated record's own docLen is recomputed outright.
	if keep {
		ix.docLen[rid] = ix.countKept(newTerms, maxAfter)
	}
	// Records that only lost/gained rid-shared terms still need their
	// docLen adjusted for terms whose kept status did NOT flip but whose
	// membership in rid changed — those affect only rid's docLen, already
	// recomputed. (A term leaving rid changes no other record's docLen.)

	delete(affected, rid)
	if !keep {
		// Removal: drop every pair involving rid directly.
		var removed [][2]string
		for _, p := range ix.adj[rid] {
			key := Key(rid, p)
			if _, ok := ix.pairs[key]; ok {
				delete(ix.pairs, key)
				removed = append(removed, [2]string{id, ix.extID[p]})
				ix.touch(p)
			}
		}
		ix.adj[rid] = nil
		ix.touch(rid)
		d := ix.recomputeRows(affected, maxAfter)
		d.RemovedPairs = append(d.RemovedPairs, removed...)
		d.Touched = append(d.Touched, id)
		return d
	}

	affected[rid] = struct{}{}
	ix.touch(rid)
	return ix.recomputeRows(affected, maxAfter)
}

// recomputeRows re-derives the candidate rows of the affected records,
// patching the pair table in place, or falls back to a full rebuild when
// the affected set is a large fraction of the corpus.
func (ix *Index) recomputeRows(affected map[int32]struct{}, maxDF int32) Delta {
	if len(affected) == 0 {
		return Delta{}
	}
	if len(affected) > ix.rebuildThreshold() {
		ix.rebuildPairs(maxDF)
		return Delta{Rebuilt: true}
	}
	// Deterministic processing order (ascending rid) so the Delta's pair
	// lists are reproducible; the resulting table state is order-free.
	rids := make([]int32, 0, len(affected))
	for r := range affected {
		rids = append(rids, r)
	}
	sort.Slice(rids, func(a, b int) bool { return rids[a] < rids[b] })

	var d Delta
	for _, r := range rids {
		ix.touch(r)
		d.Touched = append(d.Touched, ix.extID[r])
		add, rem := ix.recomputeRow(r, maxDF)
		d.AddedPairs = append(d.AddedPairs, add...)
		d.RemovedPairs = append(d.RemovedPairs, rem...)
	}
	return d
}

// rebuildThreshold is the affected-set size above which patching rows one
// by one loses to rebuilding the pair table outright.
func (ix *Index) rebuildThreshold() int {
	t := ix.live / 8
	if t < 1024 {
		t = 1024
	}
	return t
}

// recomputeRow re-derives every candidate pair involving record r and
// diffs it against the stored table.
func (ix *Index) recomputeRow(r int32, maxDF int32) (added, removed [][2]string) {
	cnt := ix.scratchCnt()
	marked := ix.scratchMarked()
	cross := ix.cfg.Block.CrossSourceOnly

	var touched []int32
	//lint:ignore guardloop bounded by one record's eligible terms × MaxTermRecords-capped posting lists; large affected sets take the rebuildPairs path, which polls
	for _, t := range ix.terms[r] {
		if !ix.eligAt(t, ix.df[t], maxDF) {
			continue
		}
		for _, q := range ix.postings[t] {
			if q == r {
				continue
			}
			if cross && ix.sources[q] == ix.sources[r] {
				continue
			}
			if cnt[q] == 0 {
				touched = append(touched, q)
			}
			cnt[q]++
		}
	}
	for _, q := range touched {
		s := cnt[q]
		cnt[q] = 0
		if !ix.cfg.Block.survives(s, ix.docLen, r, q) {
			continue
		}
		key := Key(r, q)
		if _, ok := ix.pairs[key]; !ok {
			// Stale tombstones from earlier removals may linger in either
			// adjacency; re-adding without the membership check would
			// duplicate entries that then survive compaction forever.
			if !containsInt32(ix.adj[r], q) {
				ix.adj[r] = append(ix.adj[r], q)
			}
			if !containsInt32(ix.adj[q], r) {
				ix.adj[q] = append(ix.adj[q], r)
			}
			added = append(added, ix.pairIDs(r, q))
			ix.touch(q)
		}
		ix.pairs[key] = s
		marked[q] = true
	}
	// Drop stored pairs the fresh row no longer produces, compacting the
	// adjacency as we go.
	keepAdj := ix.adj[r][:0]
	for _, p := range ix.adj[r] {
		key := Key(r, p)
		if _, ok := ix.pairs[key]; !ok {
			continue // stale entry from an earlier removal
		}
		if marked[p] {
			keepAdj = append(keepAdj, p)
			continue
		}
		delete(ix.pairs, key)
		removed = append(removed, ix.pairIDs(r, p))
		ix.touch(p)
	}
	ix.adj[r] = keepAdj
	for _, q := range touched {
		marked[q] = false
	}
	return added, removed
}

// pairIDs returns a pair's external IDs in (smaller rid, larger rid) order.
func (ix *Index) pairIDs(a, b int32) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{ix.extID[a], ix.extID[b]}
}

// rebuildPairs recomputes the whole survivor table from the live records —
// the fallback when a mutation's blast radius approaches the corpus.
func (ix *Index) rebuildPairs(maxDF int32) {
	ix.pairs = make(map[uint64]int32)
	for r := range ix.adj {
		ix.adj[r] = nil
	}
	cnt := ix.scratchCnt()
	cross := ix.cfg.Block.CrossSourceOnly
	// The rebuild runs to completion even under cancellation: a mutation
	// must leave a coherent table, and the work is bounded by the live
	// corpus. Resolve-level callers observe cancellation through their own
	// checkpoints.
	//lint:ignore guardloop bounded single-corpus rebuild; a partial table would corrupt the incremental invariant
	for r := range ix.terms {
		ri := int32(r)
		if ix.extID[r] == "" {
			continue
		}
		ix.touch(ri)
		var touched []int32
		for _, t := range ix.terms[r] {
			if !ix.eligAt(t, ix.df[t], maxDF) {
				continue
			}
			for _, q := range ix.postings[t] {
				if q <= ri {
					continue
				}
				if cross && ix.sources[q] == ix.sources[ri] {
					continue
				}
				if cnt[q] == 0 {
					touched = append(touched, q)
				}
				cnt[q]++
			}
		}
		for _, q := range touched {
			s := cnt[q]
			cnt[q] = 0
			if !ix.cfg.Block.survives(s, ix.docLen, ri, q) {
				continue
			}
			ix.pairs[Key(ri, q)] = s
			ix.adj[ri] = append(ix.adj[ri], q)
			ix.adj[q] = append(ix.adj[q], ri)
		}
	}
}

// countKept counts the corpus-kept terms of a term set.
func (ix *Index) countKept(terms []int32, maxDF int32) int32 {
	var n int32
	for _, t := range terms {
		if ix.keptAt(t, ix.df[t], maxDF) {
			n++
		}
	}
	return n
}

// allocRid assigns a record handle for a new external ID.
func (ix *Index) allocRid(id string) int32 {
	var rid int32
	if n := len(ix.freeRid); n > 0 {
		rid = ix.freeRid[n-1]
		ix.freeRid = ix.freeRid[:n-1]
	} else {
		rid = int32(len(ix.extID))
		ix.extID = append(ix.extID, "")
		ix.seqs = append(ix.seqs, nil)
		ix.terms = append(ix.terms, nil)
		ix.sources = append(ix.sources, 0)
		ix.docLen = append(ix.docLen, 0)
		ix.adj = append(ix.adj, nil)
		ix.isDirty = append(ix.isDirty, false)
		ix.res.compOf = append(ix.res.compOf, -1)
	}
	ix.extID[rid] = id
	ix.byID[id] = rid
	return rid
}

// releaseRid frees a record handle after deletion.
func (ix *Index) releaseRid(rid int32, id string) {
	ix.extID[rid] = ""
	ix.seqs[rid] = nil
	ix.terms[rid] = nil
	ix.docLen[rid] = 0
	ix.adj[rid] = nil
	delete(ix.byID, id)
	ix.freeRid = append(ix.freeRid, rid)
}

// Handle returns the stable record handle of a live external ID. Handles
// index per-record state a caller keeps beside the index; a deleted
// record's handle is reused by a later insert.
func (ix *Index) Handle(id string) (int32, bool) {
	rid, ok := ix.byID[id]
	return rid, ok
}

// touch marks rid as touched by the current mutation: its candidate row
// was recomputed, or a pair it ends was added or removed.
func (ix *Index) touch(rid int32) {
	if !ix.isDirty[rid] {
		ix.isDirty[rid] = true
		ix.dirty = append(ix.dirty, rid)
	}
}

// orderSearch returns the position of id in the ascending external-ID
// order (or where it would be inserted).
func (ix *Index) orderSearch(id string) int {
	return sort.Search(len(ix.order), func(k int) bool { return ix.extID[ix.order[k]] >= id })
}

// orderInsert places a newly allocated handle into the record order.
func (ix *Index) orderInsert(rid int32) {
	at := ix.orderSearch(ix.extID[rid])
	ix.order = slices.Insert(ix.order, at, rid)
}

// orderRemove drops a live external ID from the record order.
func (ix *Index) orderRemove(id string) {
	at := ix.orderSearch(id)
	ix.order = slices.Delete(ix.order, at, at+1)
}

// postingAdd inserts rid into a term's posting list (kept sorted) and
// bumps its df.
func (ix *Index) postingAdd(t, rid int32) {
	p := ix.postings[t]
	i := sort.Search(len(p), func(k int) bool { return p[k] >= rid })
	p = append(p, 0)
	copy(p[i+1:], p[i:])
	p[i] = rid
	ix.postings[t] = p
	ix.df[t]++
}

// postingRemove deletes rid from a term's posting list and drops its df.
func (ix *Index) postingRemove(t, rid int32) {
	p := ix.postings[t]
	i := sort.Search(len(p), func(k int) bool { return p[k] >= rid })
	if i < len(p) && p[i] == rid {
		ix.postings[t] = append(p[:i], p[i+1:]...)
		ix.df[t]--
	}
}

// scratchCnt returns the all-zero per-record counter scratch, growing it to
// the current handle space.
func (ix *Index) scratchCnt() []int32 {
	ix.cnt = Grow(ix.cnt, len(ix.extID))
	return ix.cnt
}

// scratchMarked returns the all-false per-record flag scratch.
func (ix *Index) scratchMarked() []bool {
	ix.marked = Grow(ix.marked, len(ix.extID))
	return ix.marked
}

// Grow extends s to length n (at least len(s)), growing its capacity
// amortized, so a slice that grows one element at a time reallocates
// O(log n) times. Elements past len(s) hold what s's spare capacity held:
// zero unless an earlier, longer use left values there, so a scratch kept
// all-zero stays all-zero.
func Grow[T any](s []T, n int) []T {
	if n <= len(s) {
		return s[:n]
	}
	return slices.Grow(s, n-len(s))[:n]
}

// containsInt32 reports membership by linear scan; adjacency rows are
// survivor-bounded and short.
func containsInt32(s []int32, v int32) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// forSymDiff walks the symmetric difference of two sorted term sets.
func forSymDiff(old, new []int32, fn func(t int32, inOld bool)) {
	i, j := 0, 0
	for i < len(old) && j < len(new) {
		switch {
		case old[i] < new[j]:
			fn(old[i], true)
			i++
		case old[i] > new[j]:
			fn(new[j], false)
			j++
		default:
			i++
			j++
		}
	}
	for ; i < len(old); i++ {
		fn(old[i], true)
	}
	for ; j < len(new); j++ {
		fn(new[j], false)
	}
}

// uniqueSorted returns the sorted distinct values of a sequence.
func uniqueSorted(seq []int32) []int32 {
	if len(seq) == 0 {
		return nil
	}
	out := make([]int32, len(seq))
	copy(out, seq)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}
