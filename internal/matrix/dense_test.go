package matrix

import (
	"math"
	"math/rand"
	"testing"
)

func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
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
	got := a.Mul(b)
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
		if !a.Mul(b).Equalish(naiveMul(a, b), 1e-9) {
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
	if !a.Mul(id).Equalish(a, 1e-12) {
		t.Error("a·I != a")
	}
	if !id.Mul(a).Equalish(a, 1e-12) {
		t.Error("I·a != a")
	}
}

func TestDenseMulAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 7, 5)
	b := randomDense(rng, 5, 6)
	c := randomDense(rng, 6, 4)
	left := a.Mul(b).Mul(c)
	right := a.Mul(b.Mul(c))
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
	if got := a.Add(b); !got.Equalish(NewDenseFrom([][]float64{{3, 2}, {4, 3}}), 0) {
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
	want := a.Mul(xm)
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
	NewDense(2, 3).Mul(NewDense(2, 3))
}
