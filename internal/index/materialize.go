package index

import (
	"slices"
	"strings"

	"repro/internal/parallel"
	"repro/internal/textproc"
)

// sortInt32 insertion-sorts a short slice in place. Docs are a dozen or so
// terms; at that length insertion sort beats sort.Slice's closure-and-
// interface machinery several times over, and this runs once per record
// per materialize.
func sortInt32(a []int32) {
	//lint:ignore guardloop bounded by one record's dozen-term doc; the caller's scheduler chunk polls per record
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}

// ensureSorted maintains the lexicographic vocabulary order. Surfaces are
// interned append-only (a deleted record's terms keep their slot with
// DF 0), so ix.sortedIIDs always covers exactly the first len(sortedIIDs)
// intern IDs: only the surfaces interned since the last call need sorting,
// and a linear merge folds them in. A handful of new terms therefore costs
// O(new log new + V) instead of the O(V log V) full re-sort — the
// difference between a term-introducing upsert and a free one on the warm
// resolve path.
func (ix *Index) ensureSorted() {
	if !ix.vocabDirty && len(ix.sortedIIDs) == len(ix.surfaces) {
		return
	}
	old := ix.sortedIIDs
	fresh := make([]int32, len(ix.surfaces)-len(old))
	for i := range fresh {
		fresh[i] = int32(len(old) + i)
	}
	slices.SortFunc(fresh, func(a, b int32) int {
		return strings.Compare(ix.surfaces[a], ix.surfaces[b])
	})
	merged := make([]int32, 0, len(ix.surfaces))
	i, j := 0, 0
	for i < len(old) && j < len(fresh) {
		// Interned surfaces are unique, so the order of equal elements
		// never arises; <= keeps the merge stable anyway.
		if ix.surfaces[old[i]] <= ix.surfaces[fresh[j]] {
			merged = append(merged, old[i])
			i++
		} else {
			merged = append(merged, fresh[j])
			j++
		}
	}
	merged = append(merged, old[i:]...)
	merged = append(merged, fresh[j:]...)
	ix.sortedIIDs = merged
	if cap(ix.rankOf) < len(ix.surfaces) {
		ix.rankOf = make([]int32, len(ix.surfaces))
	}
	ix.rankOf = ix.rankOf[:len(ix.surfaces)]
	for pos, iid := range ix.sortedIIDs {
		ix.rankOf[iid] = int32(pos)
	}
	ix.vocabDirty = false
}

// Materialize assembles the current Corpus and candidate Graph over the
// live records in ascending external-ID order — bit-identical to running
// textproc.BuildCorpus + BuildGraph over the same records from scratch.
// The cost is proportional to the corpus surface (tokens + surviving
// pairs), not to the quadratic blocking scan the batch path performs. It
// is the cold and debug export and the oracle of the resident path
// (Pending/Commit), whose state it neither reads nor changes.
func (ix *Index) Materialize() *View {
	ix.syncOrder()
	ix.ensureSorted()
	n := len(ix.order)
	maxDF := ix.maxKeptDF()

	// Kept terms in lexicographic order become the dense corpus IDs.
	denseOf := make([]int32, len(ix.surfaces))
	var surfaces []string
	denseDF := []int{}
	var eligible []bool
	for _, iid := range ix.sortedIIDs {
		denseOf[iid] = -1
		f := ix.df[iid]
		if f < 1 || !ix.keptAt(iid, f, maxDF) {
			continue
		}
		denseOf[iid] = int32(len(surfaces))
		surfaces = append(surfaces, ix.surfaces[iid])
		denseDF = append(denseDF, int(f))
		eligible = append(eligible, ix.eligAt(iid, f, maxDF))
	}
	c := &textproc.Corpus{
		Terms: surfaces,
		Docs:  make([][]int32, n),
		Seqs:  make([][]int32, n),
		DF:    denseDF,
	}
	posOf := make([]int32, len(ix.extID))
	ids := make([]string, n)
	sources := make([]int, n)
	for pos, rid := range ix.order {
		posOf[rid] = int32(pos)
	}
	// Per-record view assembly. All docs (and all seqs) share one backing
	// array — two bulk allocations instead of 2n small ones, which is what
	// keeps the GC out of the warm resolve path — and the work fans out
	// over the deterministic scheduler: chunk boundaries come from the
	// offset arrays, every chunk writes only its own positions' rows, so
	// the view is bit-identical at every worker count.
	workers := ix.cfg.Block.Workers
	docOff := make([]int32, n+1)
	seqOff := make([]int32, n+1)
	for pos, rid := range ix.order {
		docOff[pos+1] = docOff[pos] + int32(len(ix.terms[rid]))
		seqOff[pos+1] = seqOff[pos] + int32(len(ix.seqs[rid]))
	}
	docBuf := make([]int32, docOff[n])
	seqBuf := make([]int32, seqOff[n])
	parallel.ForGrain(workers, n, 1<<10, func(lo, hi int) {
		//lint:ignore guardloop output-sized copy: assembles each record's term list once per chunk; no quadratic candidate enumeration happens here
		for pos := lo; pos < hi; pos++ {
			rid := ix.order[pos]
			ids[pos] = ix.extID[rid]
			sources[pos] = int(ix.sources[rid])
			doc := docBuf[docOff[pos]:docOff[pos]:docOff[pos+1]]
			for _, t := range ix.terms[rid] {
				if d := denseOf[t]; d >= 0 {
					doc = append(doc, d)
				}
			}
			sortInt32(doc)
			c.Docs[pos] = doc
			seq := seqBuf[seqOff[pos]:seqOff[pos]:seqOff[pos+1]]
			for _, t := range ix.seqs[rid] {
				if d := denseOf[t]; d >= 0 {
					seq = append(seq, d)
				}
			}
			c.Seqs[pos] = seq
		}
	})

	// Survivors from the rows in position order, each pair read at its
	// smaller position. Rows keep no shared-term count, so it is recounted.
	var survivors []survivor
	var shared []int32
	for pa, rid := range ix.order {
		for _, q := range ix.adj[rid] {
			if pb := posOf[q]; pb > int32(pa) {
				shared = ix.appendShared(shared[:0], rid, q, maxDF)
				survivors = append(survivors, survivor{r: int32(pa), q: pb, shared: int32(len(shared))})
			}
		}
	}
	g := assembleGraph(c, survivors, eligible, workers)

	return &View{Corpus: c, Graph: g, Sources: sources, IDs: ids}
}
