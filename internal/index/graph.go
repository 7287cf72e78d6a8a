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
// appears in both records after the blocking filters.
type Graph struct {
	NumRecords int
	NumTerms   int
	// Pairs lists the candidate pairs; the slice index is the pair-node ID.
	Pairs []Pair
	// Index maps Key(i,j) to the pair-node ID.
	Index map[uint64]int32
	// TermPairs holds, per term, the IDs of the pair nodes it connects to.
	// len(TermPairs[t]) is the paper's P_t after candidate restriction.
	TermPairs [][]int32
	// PairTermPtr/PairTerms are the transpose of TermPairs in CSR layout:
	// the terms connected to pair p are PairTerms[PairTermPtr[p]:
	// PairTermPtr[p+1]], ascending. The transpose turns ITER's term→pair
	// scatter into a race-free per-pair gather; because terms are visited in
	// ascending order either way, the gather adds contributions in exactly
	// the scatter's order and the sweep stays bit-identical to the serial
	// term-major loop. Built by BuildPairIndex; nil on hand-rolled graphs,
	// in which case consumers fall back to the serial scatter.
	PairTermPtr []int32
	PairTerms   []int32
}

// BuildPairIndex (re)builds the pair→term CSR transpose of TermPairs.
// BuildGraph and Truncate call it; a caller that assembles a Graph by hand
// only needs it to opt into the parallel ITER sweep.
func (g *Graph) BuildPairIndex() {
	np := g.NumPairs()
	ptr := make([]int32, np+1)
	//lint:ignore guardloop output-sized transpose of the already-built adjacency; the guarded stage is the quadratic enumeration in BuildGraph, upstream
	for _, pairIDs := range g.TermPairs {
		for _, pid := range pairIDs {
			ptr[pid+1]++
		}
	}
	for p := 0; p < np; p++ {
		ptr[p+1] += ptr[p]
	}
	terms := make([]int32, ptr[np])
	fill := make([]int32, np)
	copy(fill, ptr[:np])
	// Terms are scanned ascending, so each pair's term list comes out
	// ascending — the property the gather's bit-identity argument needs.
	for t, pairIDs := range g.TermPairs {
		for _, pid := range pairIDs {
			terms[fill[pid]] = int32(t)
			fill[pid]++
		}
	}
	g.PairTermPtr = ptr
	g.PairTerms = terms
}

// Truncate returns a graph restricted to the first maxPairs candidate pairs
// (enumeration order). It is the last-resort degradation step of the pair
// budget: when tightening MinJaccard/MaxTermRecords cannot bring the
// candidate set under budget, the caller drops the tail deterministically.
// The input graph is not modified; when it is already within budget it is
// returned unchanged.
func Truncate(g *Graph, maxPairs int) *Graph {
	if maxPairs < 0 {
		maxPairs = 0
	}
	if g.NumPairs() <= maxPairs {
		return g
	}
	out := &Graph{
		NumRecords: g.NumRecords,
		NumTerms:   g.NumTerms,
		Pairs:      g.Pairs[:maxPairs:maxPairs],
		Index:      make(map[uint64]int32, maxPairs),
		TermPairs:  make([][]int32, g.NumTerms),
	}
	for _, p := range out.Pairs {
		out.Index[Key(p.I, p.J)] = int32(len(out.Index))
	}
	//lint:ignore guardloop output-sized copy of the already-built graph; the guarded stage is BuildGraph, upstream
	for t, pairIDs := range g.TermPairs {
		for _, pid := range pairIDs {
			if int(pid) < maxPairs {
				out.TermPairs[t] = append(out.TermPairs[t], pid)
			}
		}
	}
	out.BuildPairIndex()
	return out
}

// NumPairs returns the candidate pair count (edges of G_r).
func (g *Graph) NumPairs() int { return len(g.Pairs) }

// Pt returns the number of pair nodes connected to term t.
func (g *Graph) Pt(t int) int { return len(g.TermPairs[t]) }

// PairID returns the pair-node ID for records (i, j) and whether the pair is
// a candidate.
func (g *Graph) PairID(i, j int32) (int32, bool) {
	id, ok := g.Index[Key(i, j)]
	return id, ok
}
