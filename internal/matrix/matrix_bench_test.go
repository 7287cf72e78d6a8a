package matrix

import (
	"math/rand"
	"testing"
)

func benchPattern(n int, density float64) (*Pattern, *PatVec, *PatVec) {
	rng := rand.New(rand.NewSource(1))
	var edges []Edge
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < density {
				edges = append(edges, Edge{int32(i), int32(j)})
			}
		}
	}
	p := NewPattern(n, edges)
	a := NewPatVec(p)
	b := NewPatVec(p)
	for k := range a.Val {
		a.Val[k] = rng.Float64()
		b.Val[k] = rng.Float64()
	}
	return p, a, b
}

// BenchmarkMaskedMul measures the CliqueRank inner kernel at the densities
// the replicas produce.
func BenchmarkMaskedMul(b *testing.B) {
	for _, tc := range []struct {
		n       int
		density float64
		name    string
	}{
		{200, 0.02, "n=200/sparse"},
		{200, 0.3, "n=200/dense"},
		{800, 0.02, "n=800/sparse"},
	} {
		_, mt, a := benchPattern(tc.n, tc.density)
		b.Run(tc.name, func(b *testing.B) {
			at := a.Transpose()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MaskedMul(mt, at)
			}
		})
	}
}

func BenchmarkPatVecTranspose(b *testing.B) {
	_, a, _ := benchPattern(500, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Transpose()
	}
}

func BenchmarkCSRMulVec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	m := randomCSR(rng, 1000, 1000, 0.01)
	x := make([]float64, 1000)
	for i := range x {
		x[i] = rng.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.MulVec(x)
	}
}
