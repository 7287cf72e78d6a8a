package index

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/guard"
	"repro/internal/parallel"
	"repro/internal/textproc"
)

// BatchOptions controls batch candidate generation. Workers bounds the
// goroutines the per-record partner scan fans out across (zero selects
// GOMAXPROCS) and — like every kernel on the parallel scheduler — changes
// only wall-clock time, never the output.
type BatchOptions struct {
	// CrossSourceOnly restricts pairs to records from different sources,
	// the standard setting for two-source datasets such as Product
	// (abt × buy).
	CrossSourceOnly bool
	// MaxTermRecords skips terms contained in more than this many records
	// when enumerating pairs. Such terms generate quadratically many pair
	// connections while carrying no discriminative signal; the paper's
	// pre-processing removes "very frequent" terms for the same reason.
	// Zero means no cap.
	MaxTermRecords int
	// MinJaccard requires candidate pairs to reach this Jaccard similarity
	// over their filtered term sets. The crowd-sourcing systems the paper
	// compares against pre-filter the Restaurant/Product/Paper benchmarks
	// at Jaccard >= 0.3 (§I cites [10], [12]), and the published G_r edge
	// counts (e.g. 5,320 edges for Restaurant out of 367,653 candidate
	// pairs) are only consistent with a floor of this kind on top of the
	// shared-term rule. Zero disables the floor.
	MinJaccard float64
	// MinSharedTerms requires candidate pairs to share at least this many
	// terms. Values <= 1 reproduce the paper's footnote ("two records are
	// connected only if they share at least one term"). The default
	// pipeline uses 2: records sharing exactly one mid-frequency term form
	// isolated equal-weight components in G_r that are topologically
	// indistinguishable from true entities, so any purely topological
	// estimator marks them matches; requiring a second shared term
	// dissolves those fake cliques while true matches — which per §V-A
	// "share a considerable number of discriminative terms" — are
	// unaffected.
	MinSharedTerms int
	// Check, when non-nil, is polled during candidate enumeration so a
	// canceled run aborts promptly instead of completing an O(Σ |block|²)
	// pass on adversarial input. BuildGraph returns the checkpoint's error.
	Check *guard.Checkpoint
	// Workers bounds the scan fan-out; zero selects GOMAXPROCS.
	Workers int
}

// survives is the blocking survival rule shared by the batch build and the
// incremental index: records a and b, sharing shared eligible terms,
// form a candidate pair when shared reaches MinSharedTerms (floored at 1)
// and, with MinJaccard set, when shared over the union of their kept-term
// document lengths docLen[a] and docLen[b] reaches MinJaccard. docLen is
// read only past the shared-term floor, which most partners fail: the
// partner's entry is a random access.
func (o *BatchOptions) survives(shared int32, docLen []int32, a, b int32) bool {
	if shared < max(int32(o.MinSharedTerms), 1) {
		return false
	}
	if o.MinJaccard > 0 {
		union := int(docLen[a]) + int(docLen[b]) - int(shared)
		if union <= 0 || float64(shared)/float64(union) < o.MinJaccard {
			return false
		}
	}
	return true
}

// survivor is one candidate pair that passed every blocking filter.
type survivor struct {
	r, q   int32 // record positions, r < q
	shared int32 // number of eligible shared terms
}

// batchScratch is one worker's dense partner-accumulation state. cnt is
// kept all-zero between records (the reset loop clears exactly the touched
// entries), so reusing a pooled scratch never leaks counts across records
// or builds.
type batchScratch struct {
	cnt     []int32 // per-record shared-term count with the current record
	touched []int32 // partners touched by the current record, first-touch order
}

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

func getBatchScratch(n int) *batchScratch {
	s := batchScratchPool.Get().(*batchScratch)
	if cap(s.cnt) < n {
		s.cnt = make([]int32, n)
	}
	s.cnt = s.cnt[:n]
	return s
}

// BuildGraph constructs the candidate set and bipartite graph for the
// corpus in NewGraph's layout, which is bit-identical to the historical
// serial term-major enumeration. The partner scan is scanPartners, which
// the index's rebuild runs too.
//
// source[i] gives the origin of record i; it may be nil when
// !opts.CrossSourceOnly. It returns an error when the source labels are
// misaligned with the corpus or when opts.Check reports cancellation
// mid-enumeration; the returned graph is nil in both cases.
func BuildGraph(c *textproc.Corpus, source []int, opts BatchOptions) (*Graph, error) {
	n := c.NumRecords()
	if opts.CrossSourceOnly && len(source) != n {
		return nil, fmt.Errorf("index: %d records but %d source labels", n, len(source))
	}
	nt := c.NumTerms()

	// Inverted index in CSR layout: term -> records containing it
	// (ascending, since records are scanned in order). Corpus.DF already
	// holds the posting lengths.
	ptr := make([]int32, nt+1)
	for t := 0; t < nt; t++ {
		ptr[t+1] = ptr[t] + int32(c.DF[t])
	}
	postings := make([]int32, ptr[nt])
	fill := make([]int32, nt)
	copy(fill, ptr[:nt])
	docLen := make([]int32, n)
	for r, doc := range c.Docs {
		docLen[r] = int32(len(doc))
		for _, t := range doc {
			postings[fill[t]] = int32(r)
			fill[t]++
		}
	}
	eligible := make([]bool, nt)
	for t, df := range c.DF {
		eligible[t] = df >= 2 && (opts.MaxTermRecords <= 0 || df <= opts.MaxTermRecords)
	}
	var src []int32
	if opts.CrossSourceOnly {
		src = make([]int32, n)
		for r, s := range source {
			src[r] = int32(s)
		}
	}
	survivors := scanPartners(c.Docs, ptr, postings, eligible, docLen, src, &opts)
	if err := opts.Check.Err(); err != nil {
		return nil, err
	}
	return assembleGraph(c, survivors, eligible, opts.Workers), nil
}

// scanPartners is the forward partner scan of the batch build and of the
// index's rebuild. For each record r it accumulates shared-term counts
// against every later record co-occurring under an eligible term, then
// applies the MinSharedTerms/MinJaccard filters, so each pair is examined
// exactly once, at its smaller endpoint. docs[r] lists record r's terms,
// and post[ptr[t]:ptr[t+1]] holds term t's records in ascending order
// (only eligible terms are read). docLen feeds the Jaccard floor and source
// the CrossSourceOnly filter; source may be nil without that filter.
//
// Records fan out over parallel.ForGrain. Chunk outputs land in the slot
// of their chunk index and are concatenated in chunk order, so the
// survivor sequence is a pure function of the input at every worker count.
// When opts.Check reports cancellation the scan stops early and the
// caller reads the checkpoint's error.
func scanPartners(docs [][]int32, ptr, post []int32, eligible []bool, docLen, source []int32, opts *BatchOptions) []survivor {
	n := len(docs)
	work := 0
	for t, ok := range eligible {
		if ok {
			df := int(ptr[t+1] - ptr[t])
			work += df * df
		}
	}
	grain := parallel.GrainFor(n, work, 1<<16)
	numChunks := (n + grain - 1) / grain
	chunkOut := make([][]survivor, numChunks)
	parallel.ForGrain(opts.Workers, n, grain, func(lo, hi int) {
		sc := getBatchScratch(n)
		cnt := sc.cnt
		out := chunkOut[lo/grain]
		for r := lo; r < hi; r++ {
			if opts.Check.Tick() != nil {
				break
			}
			touched := sc.touched[:0]
			ri := int32(r)
			for _, t := range docs[r] {
				if !eligible[t] {
					continue
				}
				// Partners after r in the posting: binary-search the start.
				p := post[ptr[t]:ptr[t+1]]
				a := sort.Search(len(p), func(i int) bool { return p[i] > ri })
				for _, q := range p[a:] {
					if opts.CrossSourceOnly && source[ri] == source[q] {
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
				if opts.survives(s, docLen, ri, q) {
					out = append(out, survivor{r: ri, q: q, shared: s})
				}
			}
			sc.touched = touched[:0]
		}
		chunkOut[lo/grain] = out
		batchScratchPool.Put(sc)
	})

	total := 0
	for _, out := range chunkOut {
		total += len(out)
	}
	survivors := make([]survivor, 0, total)
	for _, out := range chunkOut {
		survivors = append(survivors, out...)
	}
	return survivors
}

// assembleGraph lists each surviving pair's eligible shared terms and
// hands them to NewGraph. A survivor's shared count is exactly its number
// of eligible shared terms, so the lists are windows of one array whose
// offsets are known up front, and chunks of survivors fill their windows
// in parallel.
func assembleGraph(c *textproc.Corpus, survivors []survivor, eligible []bool, workers int) *Graph {
	pairs := make([]Pair, len(survivors))
	terms := make([][]int32, len(survivors))
	total := 0
	for _, s := range survivors {
		total += int(s.shared)
	}
	buf := make([]int32, total)
	off := 0
	for k, s := range survivors {
		pairs[k] = Pair{I: s.r, J: s.q}
		terms[k] = buf[off : off : off+int(s.shared)]
		off += int(s.shared)
	}
	parallel.ForGrain(workers, len(survivors), 1<<12, func(lo, hi int) {
		//lint:ignore guardloop output-sized merge over the already-filtered survivors; the guarded stage is the quadratic scan in BuildGraph, upstream
		for k := lo; k < hi; k++ {
			di, dj := c.Docs[pairs[k].I], c.Docs[pairs[k].J]
			for x, y := 0, 0; x < len(di) && y < len(dj); {
				switch {
				case di[x] < dj[y]:
					x++
				case di[x] > dj[y]:
					y++
				default:
					if eligible[di[x]] {
						terms[k] = append(terms[k], di[x])
					}
					x++
					y++
				}
			}
		}
	})
	return NewGraph(c.NumRecords(), c.NumTerms(), pairs, terms)
}
