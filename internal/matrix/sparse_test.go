package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// CSR is a compressed sparse row matrix, a reference the tests build and
// multiply. Column indexes inside each row are strictly ascending.
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
		panic("matrix: CSR MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := range out {
		cols, vals := m.RowSlice(i)
		for k, c := range cols {
			out[i] += vals[k] * x[c]
		}
	}
	return out
}

// MulVecT computes mᵀ · x without materializing the transpose.
func (m *CSR) MulVecT(x []float64) []float64 {
	if m.Rows != len(x) {
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

func randomCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	var entries []Entry
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Float64() < density {
				entries = append(entries, Entry{Row: int32(i), Col: int32(j), Val: rng.NormFloat64()})
			}
		}
	}
	return NewCSR(rows, cols, entries)
}

func TestCSRRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		m := randomCSR(rng, 1+rng.Intn(10), 1+rng.Intn(10), 0.3)
		d := m.ToDense()
		var entries []Entry
		for i := 0; i < d.Rows; i++ {
			for j, v := range d.Row(i) {
				if v != 0 {
					entries = append(entries, Entry{Row: int32(i), Col: int32(j), Val: v})
				}
			}
		}
		back := NewCSR(d.Rows, d.Cols, entries)
		if m.NNZ() != back.NNZ() {
			t.Fatalf("round trip changed nnz: %d -> %d", m.NNZ(), back.NNZ())
		}
		if !m.ToDense().Equalish(back.ToDense(), 0) {
			t.Fatal("round trip changed values")
		}
	}
}

func TestCSRDuplicatesSummed(t *testing.T) {
	m := NewCSR(2, 2, []Entry{{0, 1, 2}, {0, 1, 3}, {1, 0, 1}})
	if got := m.At(0, 1); got != 5 {
		t.Errorf("At(0,1) = %g, want 5 (duplicates summed)", got)
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
	if got := m.At(1, 1); got != 0 {
		t.Errorf("At(1,1) = %g, want 0", got)
	}
}

func TestCSRMulVecMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(12), 1+rng.Intn(12)
		m := randomCSR(rng, rows, cols, 0.4)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := m.MulVec(x)
		want := m.ToDense().MulVec(x)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want[i])
			}
		}
		gotT := m.MulVecT(make([]float64, rows))
		for _, v := range gotT {
			if v != 0 {
				t.Fatal("MulVecT of zero vector must be zero")
			}
		}
		y := make([]float64, rows)
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		gt := m.MulVecT(y)
		wt := m.ToDense().Transpose().MulVec(y)
		for i := range gt {
			if math.Abs(gt[i]-wt[i]) > 1e-10 {
				t.Fatalf("MulVecT[%d] = %g, want %g", i, gt[i], wt[i])
			}
		}
	}
}

func TestSparseDot(t *testing.T) {
	a := []int32{1, 3, 5}
	av := []float64{1, 2, 3}
	b := []int32{2, 3, 5, 7}
	bv := []float64{9, 4, 5, 6}
	if got := sparseDot(a, av, b, bv); got != 2*4+3*5 {
		t.Errorf("sparseDot = %g, want 23", got)
	}
	if got := sparseDot(nil, nil, b, bv); got != 0 {
		t.Errorf("sparseDot(empty) = %g", got)
	}
}
