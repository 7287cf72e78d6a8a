package matrix

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
)

// CSR is a compressed sparse row matrix. Column indexes inside each row are
// strictly ascending.
type CSR struct {
	Rows, Cols int
	RowPtr     []int32   // len Rows+1
	Col        []int32   // len nnz
	Val        []float64 // len nnz
}

// Entry is one (row, col, value) triple used to assemble sparse matrices.
type Entry struct {
	Row, Col int32
	Val      float64
}

// NewCSR assembles a CSR matrix from entries. Duplicate (row, col) entries
// are summed.
func NewCSR(rows, cols int, entries []Entry) *CSR {
	sorted := make([]Entry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int32, rows+1)}
	for k := 0; k < len(sorted); {
		e := sorted[k]
		v := e.Val
		k++
		for k < len(sorted) && sorted[k].Row == e.Row && sorted[k].Col == e.Col {
			v += sorted[k].Val
			k++
		}
		if e.Row < 0 || int(e.Row) >= rows || e.Col < 0 || int(e.Col) >= cols {
			//lint:invariant dimension preconditions are programmer errors; tests assert these panics
			panic(fmt.Sprintf("matrix: entry (%d,%d) out of %dx%d", e.Row, e.Col, rows, cols))
		}
		m.Col = append(m.Col, e.Col)
		m.Val = append(m.Val, v)
		m.RowPtr[e.Row+1]++
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Col) }

// RowSlice returns the column indexes and values of row i.
func (m *CSR) RowSlice(i int) ([]int32, []float64) {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	return m.Col[lo:hi], m.Val[lo:hi]
}

// At returns the value at (i, j), zero if the entry is not stored.
func (m *CSR) At(i, j int) float64 {
	cols, vals := m.RowSlice(i)
	k := sort.Search(len(cols), func(k int) bool { return cols[k] >= int32(j) })
	if k < len(cols) && cols[k] == int32(j) {
		return vals[k]
	}
	return 0
}

// MulVec computes m · x.
func (m *CSR) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		//lint:invariant dimension preconditions are programmer errors; tests assert these panics
		panic("matrix: CSR MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	parallel.For(0, m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, vals := m.RowSlice(i)
			var s float64
			for k, c := range cols {
				s += vals[k] * x[c]
			}
			out[i] = s
		}
	})
	return out
}

// MulVecT computes mᵀ · x without materializing the transpose.
func (m *CSR) MulVecT(x []float64) []float64 {
	if m.Rows != len(x) {
		//lint:invariant dimension preconditions are programmer errors; tests assert these panics
		panic("matrix: CSR MulVecT dimension mismatch")
	}
	out := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		cols, vals := m.RowSlice(i)
		for k, c := range cols {
			out[c] += vals[k] * xi
		}
	}
	return out
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
