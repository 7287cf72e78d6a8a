// Package matrix provides the linear-algebra substrate of the reproduction.
// The original implementation delegated CliqueRank's chained matrix products
// to the Eigen C++ library; this package replaces it with pure-Go dense and
// sparse kernels, parallelized across rows with a worker pool.
package matrix

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix of float64.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		//lint:invariant dimension preconditions are programmer errors; tests assert these panics
		panic(fmt.Sprintf("matrix: invalid dimensions %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseFrom builds a matrix from a slice of rows. All rows must have the
// same length.
func NewDenseFrom(rows [][]float64) *Dense {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			//lint:invariant dimension preconditions are programmer errors; tests assert these panics
			panic(fmt.Sprintf("matrix: ragged row %d: len %d, want %d", i, len(row), c))
		}
		copy(m.Row(i), row)
	}
	return m
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes the element at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Mul computes m × b with a cache-friendly i-k-j loop, parallelized across
// row blocks. It panics on dimension mismatch.
func (m *Dense) Mul(b *Dense) *Dense {
	if m.Cols != b.Rows {
		//lint:invariant dimension preconditions are programmer errors; tests assert these panics
		panic(fmt.Sprintf("matrix: Mul dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	out := NewDense(m.Rows, b.Cols)
	parallelRows(0, m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := m.Row(i)
			crow := out.Row(i)
			for k, aik := range arow {
				if aik == 0 {
					continue
				}
				brow := b.Row(k)
				for j, bkj := range brow {
					crow[j] += aik * bkj
				}
			}
		}
	})
	return out
}

// Hadamard computes the element-wise product m ⊙ b in place on a new matrix.
func (m *Dense) Hadamard(b *Dense) *Dense {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		//lint:invariant dimension preconditions are programmer errors; tests assert these panics
		panic("matrix: Hadamard dimension mismatch")
	}
	out := NewDense(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v * b.Data[i]
	}
	return out
}

// Transpose returns mᵀ.
func (m *Dense) Transpose() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Add returns m + b.
func (m *Dense) Add(b *Dense) *Dense {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		//lint:invariant dimension preconditions are programmer errors; tests assert these panics
		panic("matrix: Add dimension mismatch")
	}
	out := NewDense(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = v + b.Data[i]
	}
	return out
}

// Scale returns s·m.
func (m *Dense) Scale(s float64) *Dense {
	out := NewDense(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = s * v
	}
	return out
}

// MulVec computes m · x for a column vector x.
func (m *Dense) MulVec(x []float64) []float64 {
	if m.Cols != len(x) {
		//lint:invariant dimension preconditions are programmer errors; tests assert these panics
		panic("matrix: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	parallelRows(0, m.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := m.Row(i)
			var s float64
			for j, v := range row {
				s += v * x[j]
			}
			out[i] = s
		}
	})
	return out
}

// MaxAbsDiff returns max |m[i] - b[i]|, a convergence measure.
func (m *Dense) MaxAbsDiff(b *Dense) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		//lint:invariant dimension preconditions are programmer errors; tests assert these panics
		panic("matrix: MaxAbsDiff dimension mismatch")
	}
	var d float64
	for i, v := range m.Data {
		if x := math.Abs(v - b.Data[i]); x > d {
			d = x
		}
	}
	return d
}

// Equalish reports whether all elements differ by at most tol.
func (m *Dense) Equalish(b *Dense, tol float64) bool {
	return m.Rows == b.Rows && m.Cols == b.Cols && m.MaxAbsDiff(b) <= tol
}
