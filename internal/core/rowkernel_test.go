package core

import (
	"math"
	"math/rand"
	"testing"
)

// TestDenseRowKernelBitIdentical holds axpy4, the AVX2 kernel on amd64
// CPUs that have it, to the Go loop axpy4Go by Float64bits. Row lengths
// 0–70 cover the cut at eight and, from eight on, the eight-lane body and
// every tail length; the operands mix +0, subnormals, values near 1 and
// large finite values, whose products overflow to +Inf. A fused
// multiply-add or a reordered weight changes bits on the values near 1.
func TestDenseRowKernelBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 kernel on this CPU or architecture: axpy4 is axpy4Go, comparison skipped")
		return
	}
	rng := rand.New(rand.NewSource(5))
	operand := func() float64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
		case 2:
			return math.MaxFloat64 * rng.Float64()
		default:
			return 1 + (rng.Float64()-0.5)*1e-3
		}
	}
	fill := func(n int) []float64 {
		v := make([]float64, n)
		for j := range v {
			v[j] = operand()
		}
		return v
	}
	for n := 0; n <= 70; n++ {
		for trial := 0; trial < 20; trial++ {
			b0, b1, b2, b3 := fill(n), fill(n), fill(n), fill(n)
			m0, m1, m2, m3 := operand(), operand(), operand(), operand()
			want := fill(n)
			got := append([]float64(nil), want...)
			axpy4Go(want, b0, b1, b2, b3, m0, m1, m2, m3)
			axpy4(got, b0, b1, b2, b3, m0, m1, m2, m3)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("n %d trial %d: out[%d] = %x, want %x", n, trial, j,
						math.Float64bits(got[j]), math.Float64bits(want[j]))
				}
			}
		}
	}
}
