// Package index is the blocking layer: it generates candidate record pairs
// and assembles the paper's bipartite graph between terms and record-record
// pairs (§V-B). A term node t is connected to a pair node (ri, rj) iff t
// appears in both records; pairs that share no term are excluded, exactly
// the footnote of §VI ("two records are connected only if they share at
// least one term"), which also defines the edge set of the record graph G_r.
//
// The package serves batch and streaming alike: the candidate graph types
// (Graph, Pair), a parallel batch builder (BuildGraph) that is bit-identical
// to the serial term-major enumeration, and a mutable inverted index (Index)
// supporting Upsert/Delete with incremental candidate-pair maintenance, so a
// record collection can be re-blocked in time proportional to the delta
// instead of the corpus.
package index

import (
	"cmp"
	"slices"
)

// Pair is a candidate record pair with I < J.
type Pair struct {
	I, J int32
}

// Key packs a pair into a map key.
func Key(i, j int32) uint64 {
	if i > j {
		i, j = j, i
	}
	return uint64(uint32(i))<<32 | uint64(uint32(j))
}

// Graph is the candidate set plus the bipartite term/pair adjacency of the
// paper's §V-B: a term node t is connected to a pair node (ri, rj) iff t
// appears in both records after the blocking filters. NewGraph builds it
// and documents its layout.
type Graph struct {
	NumRecords int
	NumTerms   int
	// Pairs lists the candidate pairs; the slice index is the pair-node ID.
	Pairs []Pair
	// TermPairs holds, per term, the IDs of the pair nodes it connects to.
	// len(TermPairs[t]) is the paper's P_t after candidate restriction.
	TermPairs [][]int32
	// PairTermPtr/PairTerms are the transpose of TermPairs in CSR layout:
	// the terms connected to pair p are PairTerms[PairTermPtr[p]:
	// PairTermPtr[p+1]].
	PairTermPtr []int32
	PairTerms   []int32
}

// NewGraph is the one constructor of a Graph. pairs lists the pair nodes,
// each with I < J, in any order, and terms[k] lists the term nodes of
// pairs[k] in ascending order: for a blocking graph, the eligible terms its
// records share. The layout it builds is the one every builder of a
// candidate graph shares and every consumer relies on:
//
//   - Pair-node IDs ascend by (smallest term, Key). This is the order in
//     which the serial term-major enumeration first meets each pair. A
//     pair with no term sorts after every pair with one.
//   - TermPairs[t] lists the pairs of term t by ascending Key, the order
//     the enumeration appends them in.
//   - PairTermPtr/PairTerms is the exact transpose of TermPairs: each
//     pair's terms, ascending. ITER's layout keeps both orders, so its
//     sweeps add each sum in the order a term-major scatter would.
//
// Renumbering records and terms monotonically, as a component's local
// graph does, keeps both orders, so a component localized from the batch
// graph and one built from the resident index come out identical.
func NewGraph(numRecords, numTerms int, pairs []Pair, terms [][]int32) *Graph {
	np := len(pairs)
	refs := 0
	for _, ts := range terms {
		refs += len(ts)
	}
	// One scratch allocation: pairs in Key order, each pair's ID, and the
	// per-term counters of two counting sorts.
	scratch := make([]int32, 2*np+numTerms+2)
	byKey, idOf, cnt := scratch[:np], scratch[np:2*np], scratch[2*np:]
	for k := range byKey {
		byKey[k] = int32(k)
	}
	slices.SortFunc(byKey, func(a, b int32) int {
		return cmp.Compare(Key(pairs[a].I, pairs[a].J), Key(pairs[b].I, pairs[b].J))
	})
	first := func(k int32) int {
		if len(terms[k]) == 0 {
			return numTerms
		}
		return int(terms[k][0])
	}
	// IDs: a stable counting sort of the Key order by smallest term.
	for _, k := range byKey {
		cnt[first(k)+1]++
	}
	for t := 1; t < len(cnt); t++ {
		cnt[t] += cnt[t-1]
	}
	for _, k := range byKey {
		f := first(k)
		idOf[k] = cnt[f]
		cnt[f]++
	}

	// The transpose and TermPairs share one allocation with PairTermPtr;
	// all three live as long as the graph.
	buf := make([]int32, np+1+2*refs)
	g := &Graph{
		NumRecords:  numRecords,
		NumTerms:    numTerms,
		Pairs:       make([]Pair, np),
		TermPairs:   make([][]int32, numTerms),
		PairTermPtr: buf[: np+1 : np+1],
		PairTerms:   buf[np+1 : np+1+refs : np+1+refs],
	}
	backing := buf[np+1+refs:]
	ptr := g.PairTermPtr
	for k, id := range idOf {
		g.Pairs[id] = pairs[k]
		ptr[id+1] = int32(len(terms[k]))
	}
	for p := 0; p < np; p++ {
		ptr[p+1] += ptr[p]
	}
	for k, id := range idOf {
		copy(g.PairTerms[ptr[id]:], terms[k])
	}

	// TermPairs: a counting sort of the (term, pair) references, visiting
	// pairs in Key order. After the fill cnt[t] is where term t ends.
	clear(cnt)
	for _, t := range g.PairTerms {
		cnt[t+1]++
	}
	for t := 1; t < len(cnt); t++ {
		cnt[t] += cnt[t-1]
	}
	//lint:ignore guardloop output-sized layout of pairs already enumerated; the guarded stage is the candidate scan upstream
	for _, k := range byKey {
		for _, t := range terms[k] {
			backing[cnt[t]] = idOf[k]
			cnt[t]++
		}
	}
	lo := int32(0)
	for t := range g.TermPairs {
		if hi := cnt[t]; hi > lo {
			g.TermPairs[t] = backing[lo:hi:hi]
			lo = hi
		}
	}
	return g
}

// Truncate returns a graph restricted to the first maxPairs candidate pairs
// (enumeration order). It is the last-resort degradation step of the pair
// budget: when tightening MinJaccard/MaxTermRecords cannot bring the
// candidate set under budget, the caller drops the tail deterministically.
// The kept pairs keep their IDs. The input graph is not modified; when it
// is already within budget it is returned unchanged.
func Truncate(g *Graph, maxPairs int) *Graph {
	if maxPairs < 0 {
		maxPairs = 0
	}
	if g.NumPairs() <= maxPairs {
		return g
	}
	terms := make([][]int32, maxPairs)
	for p := range terms {
		terms[p] = g.PairTerms[g.PairTermPtr[p]:g.PairTermPtr[p+1]]
	}
	return NewGraph(g.NumRecords, g.NumTerms, g.Pairs[:maxPairs], terms)
}

// NumPairs returns the candidate pair count (edges of G_r).
func (g *Graph) NumPairs() int { return len(g.Pairs) }

// Pt returns the number of pair nodes connected to term t.
func (g *Graph) Pt(t int) int { return len(g.TermPairs[t]) }
