package matrix

import (
	"math"
	"math/rand"
	"testing"
)

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
