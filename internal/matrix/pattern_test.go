package matrix

import (
	"math/rand"
	"testing"
)

// Neighbors returns the sorted neighbor list of node i.
func (p *Pattern) Neighbors(i int) []int32 { return p.Col[p.RowPtr[i]:p.RowPtr[i+1]] }

// Transpose returns vᵀ: out[(i,j)] = v[(j,i)].
func (v *PatVec) Transpose() *PatVec {
	out := NewPatVec(v.P)
	v.TransposeInto(out)
	return out
}

// At returns the value at (i, j), zero when outside the pattern.
func (v *PatVec) At(i, j int) float64 {
	if s := v.P.Slot(i, j); s >= 0 {
		return v.Val[s]
	}
	return 0
}

func randomPattern(rng *rand.Rand, n int, density float64) (*Pattern, []Edge) {
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				edges = append(edges, Edge{int32(i), int32(j)})
			}
		}
	}
	return NewPattern(n, edges), edges
}

func randomPatVec(rng *rand.Rand, p *Pattern) *PatVec {
	v := NewPatVec(p)
	for i := range v.Val {
		v.Val[i] = rng.Float64()
	}
	return v
}

// toDense expands a pattern matrix to a dense one.
func toDense(v *PatVec) *Dense {
	d := NewDense(v.P.N, v.P.N)
	for i := 0; i < v.P.N; i++ {
		cols, vals := v.RowSlice(i)
		row := d.Row(i)
		for k, c := range cols {
			row[c] = vals[k]
		}
	}
	return d
}

func TestPatternStructure(t *testing.T) {
	p := NewPattern(4, []Edge{{0, 1}, {1, 2}, {0, 3}})
	if p.NNZ() != 6 {
		t.Fatalf("NNZ = %d, want 6", p.NNZ())
	}
	if p.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d, want 2", p.Degree(1))
	}
	if !p.Has(1, 0) || !p.Has(0, 1) {
		t.Error("pattern must be symmetric")
	}
	if p.Has(2, 3) {
		t.Error("absent edge reported present")
	}
	if p.Slot(2, 3) != -1 {
		t.Error("Slot of absent edge must be -1")
	}
}

func TestPatternTransposeIdx(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p, _ := randomPattern(rng, 15, 0.3)
	v := randomPatVec(rng, p)
	vt := v.Transpose()
	for i := 0; i < p.N; i++ {
		for _, j := range p.Neighbors(i) {
			if v.At(i, int(j)) != vt.At(int(j), i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
	if back := vt.Transpose(); !toDense(back).Equalish(toDense(v), 0) {
		t.Error("double transpose is not identity")
	}
}

// TestMaskedMulMatchesDense is the core correctness property for CliqueRank:
// MaskedMul(mt, aᵀ) must equal (mt × a) ⊙ M_n computed densely.
func TestMaskedMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(18)
		p, _ := randomPattern(rng, n, 0.15+rng.Float64()*0.5)
		if p.NNZ() == 0 {
			continue
		}
		mt := randomPatVec(rng, p)
		a := randomPatVec(rng, p)

		got := toDense(MaskedMul(mt, a.Transpose()))

		mask := NewPatVec(p)
		for i := range mask.Val {
			mask.Val[i] = 1
		}
		want := mul(toDense(mt), toDense(a)).Hadamard(toDense(mask))

		if !got.Equalish(want, 1e-10) {
			t.Fatalf("trial %d (n=%d, nnz=%d): MaskedMul differs from dense reference", trial, n, p.NNZ())
		}
	}
}

func TestMaskedMulZeroOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p, _ := randomPattern(rng, 10, 0.4)
	zero := NewPatVec(p)
	a := randomPatVec(rng, p)
	out := MaskedMul(zero, a.Transpose())
	for _, v := range out.Val {
		if v != 0 {
			t.Fatal("0 × a must be 0")
		}
	}
}

func TestPatternRejectsSelfLoop(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on self loop")
		}
	}()
	NewPattern(2, []Edge{{1, 1}})
}

func TestPatternRejectsDuplicateEdge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on duplicate edge")
		}
	}()
	NewPattern(3, []Edge{{0, 1}, {0, 1}})
}
