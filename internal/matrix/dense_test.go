package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Dense is a row-major dense matrix of float64, the reference the
// pattern, mask-plan and CSR kernels are tested against.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed Rows×Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
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

// Hadamard computes the element-wise product m ⊙ b in place on a new matrix.
func (m *Dense) Hadamard(b *Dense) *Dense {
	if m.Rows != b.Rows || m.Cols != b.Cols {
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
		panic("matrix: MulVec dimension mismatch")
	}
	out := make([]float64, m.Rows)
	for i := range out {
		var s float64
		for j, v := range m.Row(i) {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// MaxAbsDiff returns max |m[i] - b[i]|, a convergence measure.
func (m *Dense) MaxAbsDiff(b *Dense) float64 {
	if m.Rows != b.Rows || m.Cols != b.Cols {
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

// ToDense expands the matrix to dense form.
func (m *CSR) ToDense() *Dense {
	d := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		cols, vals := m.RowSlice(i)
		row := d.Row(i)
		for k, c := range cols {
			row[c] = vals[k]
		}
	}
	return d
}

func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// mul is the i-k-j dense product, the reference the masked-product tests
// compare against; naiveMul checks it in turn.
func mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		crow := out.Row(i)
		for k, aik := range a.Row(i) {
			if aik == 0 {
				continue
			}
			for j, bkj := range b.Row(k) {
				crow[j] += aik * bkj
			}
		}
	}
	return out
}

// add returns a + b element-wise.
func add(a, b *Dense) *Dense {
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

func naiveMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestDenseMulKnown(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{5, 6}, {7, 8}})
	got := mul(a, b)
	want := NewDenseFrom([][]float64{{19, 22}, {43, 50}})
	if !got.Equalish(want, 1e-12) {
		t.Errorf("Mul = %v, want %v", got.Data, want.Data)
	}
}

func TestDenseMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 30; trial++ {
		r := 1 + rng.Intn(15)
		k := 1 + rng.Intn(15)
		c := 1 + rng.Intn(15)
		a := randomDense(rng, r, k)
		b := randomDense(rng, k, c)
		if !mul(a, b).Equalish(naiveMul(a, b), 1e-9) {
			t.Fatalf("trial %d: Mul differs from naive for %dx%d·%dx%d", trial, r, k, k, c)
		}
	}
}

func TestDenseIdentityIsNeutral(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 9, 9)
	id := NewDense(9, 9)
	for i := 0; i < 9; i++ {
		id.Set(i, i, 1)
	}
	if !mul(a, id).Equalish(a, 1e-12) {
		t.Error("a·I != a")
	}
	if !mul(id, a).Equalish(a, 1e-12) {
		t.Error("I·a != a")
	}
}

func TestDenseMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 7, 5)
	b := randomDense(rng, 5, 6)
	c := randomDense(rng, 6, 4)
	left := mul(mul(a, b), c)
	right := mul(a, mul(b, c))
	if !left.Equalish(right, 1e-9) {
		t.Error("(ab)c != a(bc)")
	}
}

func TestDenseTranspose(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2, 3}, {4, 5, 6}})
	at := a.Transpose()
	if at.Rows != 3 || at.Cols != 2 {
		t.Fatalf("transpose dims %dx%d", at.Rows, at.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if a.At(i, j) != at.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if !at.Transpose().Equalish(a, 0) {
		t.Error("double transpose is not identity")
	}
}

func TestDenseHadamardAndAddAndScale(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	b := NewDenseFrom([][]float64{{2, 0}, {1, -1}})
	if got := a.Hadamard(b); !got.Equalish(NewDenseFrom([][]float64{{2, 0}, {3, -4}}), 0) {
		t.Errorf("Hadamard = %v", got.Data)
	}
	if got := add(a, b); !got.Equalish(NewDenseFrom([][]float64{{3, 2}, {4, 3}}), 0) {
		t.Errorf("Add = %v", got.Data)
	}
	if got := a.Scale(2); !got.Equalish(NewDenseFrom([][]float64{{2, 4}, {6, 8}}), 0) {
		t.Errorf("Scale = %v", got.Data)
	}
}

func TestDenseMulVec(t *testing.T) {
	a := NewDenseFrom([][]float64{{1, 2}, {3, 4}})
	got := a.MulVec([]float64{1, 1})
	if got[0] != 3 || got[1] != 7 {
		t.Errorf("MulVec = %v, want [3 7]", got)
	}
}

func TestDenseMulVecMatchesMul(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomDense(rng, 8, 5)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	xm := NewDense(5, 1)
	copy(xm.Data, x)
	want := mul(a, xm)
	got := a.MulVec(x)
	for i := range got {
		if math.Abs(got[i]-want.At(i, 0)) > 1e-12 {
			t.Fatalf("MulVec[%d] = %g, want %g", i, got[i], want.At(i, 0))
		}
	}
}

func TestDensePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dimension mismatch")
		}
	}()
	NewDense(2, 3).MulVec(make([]float64, 2))
}
