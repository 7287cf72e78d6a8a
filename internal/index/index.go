package index

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/textproc"
)

// Config parameterizes a mutable Index. The corpus options must match the
// pipeline's (tokenizer, MaxDFRatio, stopwords) for Materialize to
// reproduce textproc.BuildCorpus bit for bit; the block options carry the
// candidate filters. Block.Workers fans out the rebuild fallback and
// Materialize; single-record mutations are delta-sized and run inline.
// Block.Check is not read: a mutation always runs to completion.
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
	nAtDF      []int32   // df value -> number of non-stopped terms at it
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

	// Survivor set: rid -> the handles of every record it forms a
	// candidate pair with under the current corpus state. Rows are exact:
	// each pair appears once in both endpoints' rows.
	adj [][]int32

	// Mutation scratch, reused across calls: the row scanner (whose work
	// counts the row scans and rebuilds), the partners a row scan found,
	// the new ones among them, and the records a mutation re-derives.
	scan     partnerScan
	marked   []bool
	found    []survivor
	fresh    []int32
	affected []int32

	// bandVisited counts the terms the MaxDFRatio band scan has visited,
	// a work counter the load-linearity test reads.
	bandVisited int64
	// rowsDerived counts the candidate rows mutations have re-derived, a
	// work counter the upsert-scope test reads.
	rowsDerived int64

	// Live record handles in ascending external-ID order, and ids their
	// external IDs, spliced together. An insert only queues its handle in
	// orderNew; syncOrder splices the queue in before order is read, with
	// orderAt and idsNew as its scratch.
	order, orderNew, orderAt []int32
	ids, idsNew              []string

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
	return f >= 1 && f <= maxDF && !ix.stopped[iid]
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
		ix.orderNew = append(ix.orderNew, rid)
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
		iid, df      int32 // df before
		wasKept, was bool  // corpus-kept / block-eligible before
	}
	var flips []termFlip
	noteBefore := func(t int32) {
		f := ix.df[t]
		flips = append(flips, termFlip{
			iid:     t,
			df:      f,
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
	// term whose df sits between the old and new thresholds flips, and its
	// holders' rows are re-derived below. bandTerms finds those terms; it
	// reads the df histogram first and skips its O(V) scan when the band
	// is empty, which is nearly always once the corpus has grown past its
	// head terms. With no ratio cap the threshold n+1 moves on every
	// mutation but exceeds every possible df, so no term can flip.
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
		for _, t := range ix.bandTerms(lo, hi) {
			if f := ix.df[t]; !inDiff(t) {
				flips = append(flips, termFlip{
					iid:     t,
					df:      f,
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
	// flips, and collect the affected records: rid itself while it stays
	// live, then each holder of a flipped term once. marked dedupes the
	// list and is cleared again before any row is re-derived.
	//
	// One flip needs no other row: a df step between 1 and 2 that keeps
	// the kept status. A shared count changes only between holders of the
	// term, and the holder besides rid forms one pair with it, which rid's
	// own row scan (or the removal below) patches in both rows.
	marked := ix.scratchMarked()
	marked[rid] = true
	affected := ix.affected[:0]
	if keep {
		affected = append(affected, rid)
	}
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
		if isKept == fl.wasKept && min(fl.df, f) == 1 && max(fl.df, f) == 2 {
			continue
		}
		if isKept != fl.wasKept || isElig != fl.was {
			for _, q := range ix.postings[fl.iid] {
				if !marked[q] {
					marked[q] = true
					affected = append(affected, q)
				}
			}
		}
	}
	for _, q := range affected {
		marked[q] = false
	}
	marked[rid] = false
	ix.affected = affected
	// The mutated record's own docLen is recomputed outright.
	if keep {
		ix.docLen[rid] = ix.countKept(newTerms, maxAfter)
	}
	// Records that only lost/gained rid-shared terms still need their
	// docLen adjusted for terms whose kept status did NOT flip but whose
	// membership in rid changed — those affect only rid's docLen, already
	// recomputed. (A term leaving rid changes no other record's docLen.)

	if !keep {
		// Removal: drop every pair involving rid directly.
		var removed [][2]string
		for _, p := range ix.adj[rid] {
			ix.unlink(p, rid)
			removed = append(removed, [2]string{id, ix.extID[p]})
			ix.touch(p)
		}
		ix.adj[rid] = nil
		ix.touch(rid)
		d := ix.recomputeRows(affected, maxAfter)
		if !d.Rebuilt {
			d.RemovedPairs = append(d.RemovedPairs, removed...)
			d.Touched = append(d.Touched, id)
		}
		return d
	}

	ix.touch(rid)
	return ix.recomputeRows(affected, maxAfter)
}

// recomputeRows re-derives the candidate rows of the affected records,
// patching the rows in place, or falls back to a full rebuild when the
// affected set is a large fraction of the corpus.
func (ix *Index) recomputeRows(affected []int32, maxDF int32) Delta {
	if len(affected) == 0 {
		return Delta{}
	}
	if len(affected) > ix.rebuildThreshold() {
		ix.rebuild(maxDF)
		return Delta{Rebuilt: true}
	}
	// Deterministic processing order (ascending rid) so the Delta's pair
	// lists are reproducible; the resulting set of pairs is order-free.
	slices.Sort(affected)

	ix.scan.bind(ix.postings, ix.terms, ix.docLen, ix.sources, &ix.cfg.Block, len(ix.extID))
	var d Delta
	for _, r := range affected {
		ix.touch(r)
		d.Touched = append(d.Touched, ix.extID[r])
		add, rem := ix.recomputeRow(r, maxDF)
		d.AddedPairs = append(d.AddedPairs, add...)
		d.RemovedPairs = append(d.RemovedPairs, rem...)
	}
	ix.scan.unbind()
	return d
}

// rebuildThreshold is the affected-set size above which patching rows one
// by one loses to rebuilding them all outright.
func (ix *Index) rebuildThreshold() int {
	t := ix.live / 8
	if t < 1024 {
		t = 1024
	}
	return t
}

// recomputeRow re-derives every candidate pair involving record r with
// the row scanner, which recomputeRows has bound to the index, and diffs
// it against r's row, which it marks first: a surviving partner still
// marked is kept, an unmarked one is new and gets r in its row, and a
// partner left marked is lost and has r dropped from its row.
func (ix *Index) recomputeRow(r int32, maxDF int32) (added, removed [][2]string) {
	ix.rowsDerived++
	marked := ix.scratchMarked()

	old := ix.adj[r]
	for _, p := range old {
		marked[p] = true
	}
	for _, t := range ix.terms[r] {
		if ix.eligAt(t, ix.df[t], maxDF) {
			ix.scan.add(t)
		}
	}
	found := ix.scan.partners(r, -1, ix.found[:0])
	fresh := ix.fresh[:0]
	for _, s := range found {
		q := s.q
		if marked[q] {
			marked[q] = false
			continue
		}
		fresh = append(fresh, q)
		ix.adj[q] = append(ix.adj[q], r)
		added = append(added, ix.pairIDs(r, q))
		ix.touch(q)
	}
	row := old[:0]
	for _, p := range old {
		if !marked[p] {
			row = append(row, p)
			continue
		}
		marked[p] = false
		ix.unlink(p, r)
		removed = append(removed, ix.pairIDs(r, p))
		ix.touch(p)
	}
	ix.adj[r] = append(row, fresh...)
	ix.found, ix.fresh = found[:0], fresh[:0]
	return added, removed
}

// unlink drops r from p's row.
func (ix *Index) unlink(p, r int32) {
	row := ix.adj[p]
	i := slices.Index(row, r)
	row[i] = row[len(row)-1]
	ix.adj[p] = row[:len(row)-1]
}

// pairIDs returns a pair's external IDs in (smaller rid, larger rid) order.
func (ix *Index) pairIDs(a, b int32) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{ix.extID[a], ix.extID[b]}
}

// rebuild re-derives every row from the live records with the batch
// build's forward partner scan — the fallback when a mutation's blast
// radius approaches the corpus. The scan reads the index's own postings,
// with eligibility at the current threshold, and fans out over
// Block.Workers. It runs to completion even under cancellation: a
// mutation must leave exact rows, and the work is bounded by the live
// corpus.
func (ix *Index) rebuild(maxDF int32) {
	eligible := make([]bool, len(ix.df))
	for t, f := range ix.df {
		eligible[t] = ix.eligAt(int32(t), f, maxDF)
	}
	opts := ix.cfg.Block
	opts.Check = nil
	survivors, work := scanPartners(ix.terms, ix.postings, eligible, ix.docLen, ix.sources, &opts)
	ix.scan.work.add(work)
	clear(ix.adj)
	for _, s := range survivors {
		ix.adj[s.r] = append(ix.adj[s.r], s.q)
		ix.adj[s.q] = append(ix.adj[s.q], s.r)
	}
	for r, id := range ix.extID {
		if id != "" {
			ix.touch(int32(r))
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

// syncOrder sorts the queued handles by external ID and splices them into
// the record order in one pass, so a load in any ID order costs a sort
// rather than a memmove per record. Pending, Materialize and orderRemove
// call it first; every other reader of order runs after one of them.
func (ix *Index) syncOrder() {
	q := ix.orderNew
	if len(q) == 0 {
		return
	}
	slices.SortFunc(q, func(a, b int32) int { return strings.Compare(ix.extID[a], ix.extID[b]) })
	at, qIDs := ix.orderAt[:0], ix.idsNew[:0]
	for _, rid := range q {
		at = append(at, int32(ix.orderSearch(ix.extID[rid])))
		qIDs = append(qIDs, ix.extID[rid])
	}
	ix.order = Splice(ix.order, nil, q, at)
	ix.ids = Splice(ix.ids, nil, qIDs, at)
	ix.res.shift = min(ix.res.shift, int(at[0]))
	clear(qIDs)
	if len(q) > 1<<10 {
		q, at, qIDs = nil, nil, nil // a bulk load's queue is not worth keeping as scratch
	}
	ix.orderNew, ix.orderAt, ix.idsNew = q[:0], at[:0], qIDs[:0]
}

// orderRemove drops a live external ID from the record order.
func (ix *Index) orderRemove(id string) {
	ix.syncOrder()
	at := ix.orderSearch(id)
	ix.order = slices.Delete(ix.order, at, at+1)
	ix.ids = slices.Delete(ix.ids, at, at+1)
	ix.res.shift = min(ix.res.shift, at)
}

// postingAdd inserts rid into a term's posting list (kept sorted) and
// bumps its df. A fresh handle is the largest yet, so a load appends.
func (ix *Index) postingAdd(t, rid int32) {
	p := ix.postings[t]
	if n := len(p); n == 0 || p[n-1] < rid {
		p = append(p, rid)
	} else {
		i, _ := slices.BinarySearch(p, rid)
		p = slices.Insert(p, i, rid)
	}
	ix.postings[t] = p
	ix.shiftDF(t, 1)
}

// postingRemove deletes rid from a term's posting list and drops its df.
func (ix *Index) postingRemove(t, rid int32) {
	p := ix.postings[t]
	if i, ok := slices.BinarySearch(p, rid); ok {
		ix.postings[t] = slices.Delete(p, i, i+1)
		ix.shiftDF(t, -1)
	}
}

// shiftDF moves term t's df by d, keeping the histogram nAtDF in step.
// Stopped terms never enter the kept band, so they are not counted; nor
// is df 0, which no band reaches.
func (ix *Index) shiftDF(t, d int32) {
	f := ix.df[t]
	ix.df[t] = f + d
	if ix.stopped[t] {
		return
	}
	if f > 0 {
		ix.nAtDF[f]--
	}
	if f += d; f > 0 {
		if int(f) >= len(ix.nAtDF) {
			ix.nAtDF = Grow(ix.nAtDF, int(f)+1)
		}
		ix.nAtDF[f]++
	}
}

// bandTerms returns the non-stopped terms whose df lies in (lo, hi]. A
// mutation moves the corpus size by one, so the band is a df value or two
// wide and the histogram tells whether any term sits in it; only then
// does an O(V) scan find which.
func (ix *Index) bandTerms(lo, hi int32) []int32 {
	if hi >= int32(len(ix.nAtDF)) {
		hi = int32(len(ix.nAtDF)) - 1
	}
	empty := true
	for f := lo + 1; f <= hi && empty; f++ {
		empty = ix.nAtDF[f] == 0
	}
	if empty {
		return nil
	}
	ix.bandVisited += int64(len(ix.df))
	var band []int32
	for t, f := range ix.df {
		if f > lo && f <= hi && !ix.stopped[t] {
			band = append(band, int32(t))
		}
	}
	return band
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
	out := slices.Clone(seq)
	slices.Sort(out)
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}
