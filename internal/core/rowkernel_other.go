//go:build !amd64

package core

// useAVX2 is false off amd64: axpy4 is the Go loop everywhere else.
const useAVX2 = false

// axpy4 is axpy4Go off amd64.
func axpy4(out, b0, b1, b2, b3 []float64, m0, m1, m2, m3 float64) {
	axpy4Go(out, b0, b1, b2, b3, m0, m1, m2, m3)
}
