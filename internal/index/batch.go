package index

import (
	"fmt"
	"slices"
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

// survivor is one candidate pair that passed every blocking filter, tagged
// with the first eligible term shared by its records — the term under which
// the historical serial enumeration would have assigned its pair-node ID.
type survivor struct {
	r, q   int32 // record positions, r < q
	shared int32 // number of eligible shared terms
	firstT int32 // smallest eligible shared term (dense corpus ID)
}

// batchScratch is one worker's dense partner-accumulation state. cnt is
// kept all-zero between records (the reset loop clears exactly the touched
// entries), so reusing a pooled scratch never leaks counts across records
// or builds.
type batchScratch struct {
	cnt     []int32 // per-record shared-term count with the current record
	firstT  []int32 // valid only where cnt > 0
	touched []int32 // partners touched by the current record, first-touch order
}

var batchScratchPool = sync.Pool{New: func() any { return &batchScratch{} }}

func getBatchScratch(n int) *batchScratch {
	s := batchScratchPool.Get().(*batchScratch)
	if cap(s.cnt) < n {
		s.cnt = make([]int32, n)
		s.firstT = make([]int32, n)
	}
	s.cnt = s.cnt[:n]
	s.firstT = s.firstT[:n]
	return s
}

// BuildGraph constructs the candidate set and bipartite graph for the
// corpus, bit-identical to the historical serial term-major enumeration:
// pair-node IDs follow the order (first eligible shared term, record pair),
// and each TermPairs[t] lists its pairs in ascending record order — exactly
// the order the serial two-pass loop produced. The scan itself is a
// per-record partner accumulation fanned out over parallel.ForGrain, so
// chunk outputs depend only on the chunk's records, never on the schedule.
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
	for r, doc := range c.Docs {
		for _, t := range doc {
			postings[fill[t]] = int32(r)
			fill[t]++
		}
	}
	eligible := make([]bool, nt)
	work := 0
	for t := 0; t < nt; t++ {
		df := c.DF[t]
		if df >= 2 && (opts.MaxTermRecords <= 0 || df <= opts.MaxTermRecords) {
			eligible[t] = true
			work += df * df
		}
	}

	minShared := int32(opts.MinSharedTerms)
	if minShared < 1 {
		minShared = 1
	}

	// Per-record partner scan: for each record r, accumulate shared-term
	// counts against every later record co-occurring under an eligible
	// term, then apply the MinSharedTerms/MinJaccard filters. Each pair is
	// examined exactly once, at its smaller endpoint. Chunk outputs land in
	// the slot of their chunk index and are concatenated in chunk order, so
	// the survivor sequence is a pure function of the corpus.
	grain := parallel.GrainFor(n, work, 1<<16)
	numChunks := (n + grain - 1) / grain
	chunkOut := make([][]survivor, numChunks)
	parallel.ForGrain(opts.Workers, n, grain, func(lo, hi int) {
		sc := getBatchScratch(n)
		cnt, firstT := sc.cnt, sc.firstT
		out := chunkOut[lo/grain]
		for r := lo; r < hi; r++ {
			if opts.Check.Tick() != nil {
				break
			}
			touched := sc.touched[:0]
			ri := int32(r)
			for _, t := range c.Docs[r] {
				if !eligible[t] {
					continue
				}
				// Partners after r in the posting: binary-search the start.
				post := postings[ptr[t]:ptr[t+1]]
				a := sort.Search(len(post), func(i int) bool { return post[i] > ri })
				for _, q := range post[a:] {
					if opts.CrossSourceOnly && source[ri] == source[q] {
						continue
					}
					if cnt[q] == 0 {
						firstT[q] = t
						touched = append(touched, q)
					}
					cnt[q]++
				}
			}
			docLenR := len(c.Docs[r])
			for _, q := range touched {
				s := cnt[q]
				cnt[q] = 0
				if s < minShared {
					continue
				}
				if opts.MinJaccard > 0 {
					union := docLenR + len(c.Docs[q]) - int(s)
					if union <= 0 || float64(s)/float64(union) < opts.MinJaccard {
						continue
					}
				}
				out = append(out, survivor{r: ri, q: q, shared: s, firstT: firstT[q]})
			}
			sc.touched = touched[:0]
		}
		chunkOut[lo/grain] = out
		batchScratchPool.Put(sc)
	})
	if err := opts.Check.Err(); err != nil {
		return nil, err
	}

	total := 0
	for _, out := range chunkOut {
		total += len(out)
	}
	survivors := make([]survivor, 0, total)
	for _, out := range chunkOut {
		survivors = append(survivors, out...)
	}
	return assembleGraph(c, survivors, eligible, n, nt), nil
}

// assembleGraph turns the surviving pairs into a Graph in the historical
// enumeration order: pair-node IDs ascend by (first eligible shared term,
// pair key), and TermPairs[t] lists pairs in ascending key order.
func assembleGraph(c *textproc.Corpus, survivors []survivor, eligible []bool, n, nt int) *Graph {
	// slices.SortFunc, not sort.Slice: the reflection-based swapper is
	// measurable on the warm resolve path at 100k records.
	slices.SortFunc(survivors, func(a, b survivor) int {
		if a.firstT != b.firstT {
			return int(a.firstT) - int(b.firstT)
		}
		ka, kb := Key(a.r, a.q), Key(b.r, b.q)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	g := &Graph{
		NumRecords: n,
		NumTerms:   nt,
		Pairs:      make([]Pair, len(survivors)),
		Index:      make(map[uint64]int32, len(survivors)),
		TermPairs:  make([][]int32, nt),
	}
	for id, s := range survivors {
		g.Pairs[id] = Pair{I: s.r, J: s.q}
		g.Index[Key(s.r, s.q)] = int32(id)
	}
	// Bipartite adjacency: visit pairs in ascending key order so each
	// term's pair list comes out in the serial enumeration's order.
	byKey := make([]int32, len(survivors))
	for i := range byKey {
		byKey[i] = int32(i)
	}
	slices.SortFunc(byKey, func(a, b int32) int {
		ka := Key(survivors[a].r, survivors[a].q)
		kb := Key(survivors[b].r, survivors[b].q)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	// Emit (term, pair) references flat, then lay TermPairs out with a
	// stable counting sort into one backing array: a pair's shared count is
	// exactly its eligible shared terms, so the reference total is known up
	// front and no per-term slice ever grows — at 100k records the append
	// version costs ~30k small allocations per materialize. Stability keeps
	// each term's pair list in the byKey emission order, identical to the
	// appends it replaces.
	total := 0
	for _, s := range survivors {
		total += int(s.shared)
	}
	refT := make([]int32, 0, total)
	refP := make([]int32, 0, total)
	//lint:ignore guardloop output-sized adjacency fill over the already-filtered survivors; the guarded stage is the quadratic scan in BuildGraph, upstream
	for _, id := range byKey {
		s := survivors[id]
		di, dj := c.Docs[s.r], c.Docs[s.q]
		x, y := 0, 0
		for x < len(di) && y < len(dj) {
			switch {
			case di[x] < dj[y]:
				x++
			case di[x] > dj[y]:
				y++
			default:
				if eligible[di[x]] {
					refT = append(refT, di[x])
					refP = append(refP, id)
				}
				x++
				y++
			}
		}
	}
	counts := make([]int32, nt+1)
	for _, t := range refT {
		counts[t+1]++
	}
	for t := 0; t < nt; t++ {
		counts[t+1] += counts[t]
	}
	backing := make([]int32, len(refP))
	fill := make([]int32, nt)
	copy(fill, counts[:nt])
	for k, t := range refT {
		backing[fill[t]] = refP[k]
		fill[t]++
	}
	for t := 0; t < nt; t++ {
		if counts[t+1] > counts[t] {
			g.TermPairs[t] = backing[counts[t]:counts[t+1]:counts[t+1]]
		}
	}
	g.BuildPairIndex()
	return g
}
