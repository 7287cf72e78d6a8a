// Package matrix provides the linear-algebra substrate of the reproduction.
// The original implementation delegated CliqueRank's chained matrix products
// to the Eigen C++ library; this package replaces it with pure-Go pattern
// and sparse kernels, parallelized across rows through internal/parallel.
package matrix

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/parallel"
)

// Edge is an undirected edge between nodes I < J.
type Edge struct {
	I, J int32
}

// Pattern is a fixed symmetric sparsity pattern over n nodes. CliqueRank's
// recurrence Mᵏ = M_t × (Mᵏ⁻¹ ⊙ M_n) keeps every iterate supported on the
// record-graph adjacency M_n, so all matrices in the chain share one
// Pattern and differ only in their per-slot values. A "slot" is the storage
// index of one directed entry (i, j).
type Pattern struct {
	N      int
	RowPtr []int32
	Col    []int32
	// tIdx[k] is the slot of (j, i) when slot k stores (i, j). It lets a
	// transpose be a single permutation pass.
	tIdx []int32
}

// NewPattern builds the symmetric pattern from undirected edges. Self loops
// and duplicates are rejected because the record graph has neither.
func NewPattern(n int, edges []Edge) *Pattern {
	deg := make([]int32, n)
	for _, e := range edges {
		if e.I == e.J {
			//lint:invariant graph-structure preconditions are programmer errors; tests assert these panics
			panic(fmt.Sprintf("matrix: self loop %d", e.I))
		}
		if e.I < 0 || int(e.I) >= n || e.J < 0 || int(e.J) >= n {
			//lint:invariant graph-structure preconditions are programmer errors; tests assert these panics
			panic(fmt.Sprintf("matrix: edge (%d,%d) out of range n=%d", e.I, e.J, n))
		}
		deg[e.I]++
		deg[e.J]++
	}
	p := &Pattern{N: n, RowPtr: make([]int32, n+1)}
	for i := 0; i < n; i++ {
		p.RowPtr[i+1] = p.RowPtr[i] + deg[i]
	}
	nnz := p.RowPtr[n]
	p.Col = make([]int32, nnz)
	p.tIdx = make([]int32, nnz)
	fill := make([]int32, n)
	copy(fill, p.RowPtr[:n])
	for _, e := range edges {
		p.Col[fill[e.I]] = e.J
		fill[e.I]++
		p.Col[fill[e.J]] = e.I
		fill[e.J]++
	}
	for i := 0; i < n; i++ {
		lo, hi := p.RowPtr[i], p.RowPtr[i+1]
		row := p.Col[lo:hi]
		slices.Sort(row)
		for k := 1; k < len(row); k++ {
			if row[k] == row[k-1] {
				//lint:invariant graph-structure preconditions are programmer errors; tests assert these panics
				panic(fmt.Sprintf("matrix: duplicate edge (%d,%d)", i, row[k]))
			}
		}
	}
	for i := 0; i < n; i++ {
		for k := p.RowPtr[i]; k < p.RowPtr[i+1]; k++ {
			j := p.Col[k]
			p.tIdx[k] = int32(p.Slot(int(j), i))
		}
	}
	return p
}

// NNZ returns the number of directed slots (2× the undirected edge count).
func (p *Pattern) NNZ() int { return len(p.Col) }

// Degree returns the number of neighbors of node i.
func (p *Pattern) Degree(i int) int { return int(p.RowPtr[i+1] - p.RowPtr[i]) }

// Slot returns the storage index of entry (i, j), or -1 when (i, j) is not
// in the pattern.
func (p *Pattern) Slot(i, j int) int {
	lo, hi := p.RowPtr[i], p.RowPtr[i+1]
	row := p.Col[lo:hi]
	k := sort.Search(len(row), func(k int) bool { return row[k] >= int32(j) })
	if k < len(row) && row[k] == int32(j) {
		return int(lo) + k
	}
	return -1
}

// Has reports whether nodes i and j are adjacent.
func (p *Pattern) Has(i, j int) bool { return p.Slot(i, j) >= 0 }

// TSlot returns the slot of the transposed entry (j, i) given the slot of
// (i, j) — an O(1) lookup of the precomputed transpose permutation, versus
// the O(log deg) binary search of Slot.
func (p *Pattern) TSlot(k int32) int32 { return p.tIdx[k] }

// PatVec is a matrix whose support is exactly a Pattern: Val[k] is the value
// of the directed entry whose coordinates slot k encodes.
type PatVec struct {
	P   *Pattern
	Val []float64
}

// NewPatVec allocates a zero matrix on the pattern.
func NewPatVec(p *Pattern) *PatVec { return &PatVec{P: p, Val: make([]float64, p.NNZ())} }

// Clone deep-copies the values (the pattern is shared).
func (v *PatVec) Clone() *PatVec {
	out := NewPatVec(v.P)
	copy(out.Val, v.Val)
	return out
}

// TransposeInto writes vᵀ into out, which must share v's pattern: out[(i,j)]
// = v[(j,i)]. The CliqueRank power loop reuses out across calls.
func (v *PatVec) TransposeInto(out *PatVec) {
	if v.P != out.P {
		//lint:invariant graph-structure preconditions are programmer errors; tests assert these panics
		panic("matrix: TransposeInto requires operands on the same pattern")
	}
	for k, t := range v.P.tIdx {
		out.Val[k] = v.Val[t]
	}
}

// RowSlice returns the neighbor columns and values of row i.
func (v *PatVec) RowSlice(i int) ([]int32, []float64) {
	lo, hi := v.P.RowPtr[i], v.P.RowPtr[i+1]
	return v.P.Col[lo:hi], v.Val[lo:hi]
}

// MaskedMul computes (mt × a) ⊙ pattern, i.e. the CliqueRank step
// Aᵏ = (M_t × Aᵏ⁻¹) ⊙ M_n, without ever materializing the full product.
// at must hold aᵀ (TransposeInto); passing it explicitly lets callers
// reuse one transpose per step. For each pattern entry (i, j) the result
// is the sparse dot product of row i of mt with row j of at (= column j
// of a), an O(deg(i)+deg(j)) merge.
func MaskedMul(mt, at *PatVec) *PatVec {
	return MaskedMulInto(NewPatVec(mt.P), mt, at, 0)
}

// MaskedMulInto is the buffer-reusing, worker-aware form of MaskedMul: it
// writes (mt × a) ⊙ pattern into dst (which must share the operands'
// pattern) and returns dst. Rows are fanned out through the deterministic
// scheduler, and each row writes a disjoint slice of dst.Val, so the result
// is bit-identical for every worker count. workers < 1 selects GOMAXPROCS.
// It is CliqueRank's product when a mask plan would exceed its ceiling; the
// core package's TestCliqueRankFallbackAllocs pins its steady state.
func MaskedMulInto(dst, mt, at *PatVec, workers int) *PatVec {
	if mt.P != at.P || dst.P != mt.P {
		//lint:invariant graph-structure preconditions are programmer errors; tests assert these panics
		panic("matrix: MaskedMul requires operands on the same pattern")
	}
	p := mt.P
	parallel.For(workers, p.N, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			mtCols, mtVals := mt.RowSlice(i)
			for s := p.RowPtr[i]; s < p.RowPtr[i+1]; s++ {
				j := p.Col[s]
				atCols, atVals := at.RowSlice(int(j))
				dst.Val[s] = sparseDot(mtCols, mtVals, atCols, atVals)
			}
		}
	})
	return dst
}

// sparseDot computes the dot product of two sparse vectors given as sorted
// (index, value) pairs.
func sparseDot(aCols []int32, aVals []float64, bCols []int32, bVals []float64) float64 {
	var s float64
	x, y := 0, 0
	for x < len(aCols) && y < len(bCols) {
		switch {
		case aCols[x] < bCols[y]:
			x++
		case aCols[x] > bCols[y]:
			y++
		default:
			s += aVals[x] * bVals[y]
			x++
			y++
		}
	}
	return s
}
