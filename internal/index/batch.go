package index

import (
	"fmt"

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
	g, _, err := buildGraph(c, source, opts)
	return g, err
}

// buildGraph is BuildGraph, also returning the work of its partner scan.
func buildGraph(c *textproc.Corpus, source []int, opts BatchOptions) (*Graph, scanWork, error) {
	n := c.NumRecords()
	if opts.CrossSourceOnly && len(source) != n {
		return nil, scanWork{}, fmt.Errorf("index: %d records but %d source labels", n, len(source))
	}
	nt := c.NumTerms()

	// Inverted index over the eligible terms: term -> records containing
	// it (ascending, since records are scanned in order), each list a
	// window of one array. Corpus.DF already holds the posting lengths.
	eligible := make([]bool, nt)
	size := 0
	for t, df := range c.DF {
		eligible[t] = df >= 2 && (opts.MaxTermRecords <= 0 || df <= opts.MaxTermRecords)
		if eligible[t] {
			size += df
		}
	}
	post := make([][]int32, nt)
	buf := make([]int32, size)
	for t, df := range c.DF {
		if eligible[t] {
			post[t], buf = buf[:0:df], buf[df:]
		}
	}
	docLen := make([]int32, n)
	for r, doc := range c.Docs {
		docLen[r] = int32(len(doc))
		for _, t := range doc {
			if eligible[t] {
				post[t] = append(post[t], int32(r))
			}
		}
	}
	var src []int32
	if opts.CrossSourceOnly {
		src = make([]int32, n)
		for r, s := range source {
			src[r] = int32(s)
		}
	}
	survivors, work := scanPartners(c.Docs, post, eligible, docLen, src, &opts)
	if err := opts.Check.Err(); err != nil {
		return nil, work, err
	}
	return assembleGraph(c, survivors, eligible, opts.Workers), work, nil
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
