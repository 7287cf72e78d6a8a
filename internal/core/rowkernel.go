package core

// axpy4Go folds four rows into out, one `+=` per row in ascending order:
//
//	out[j] = (((out[j] + m0·b0[j]) + m1·b1[j]) + m2·b2[j]) + m3·b3[j]
//
// It is the dense chain's inner update (denseChain.mulRows), the body of
// axpy4 wherever no vector kernel runs, and the oracle the vector kernel
// is tested against. Each b must be at least as long as out.
func axpy4Go(out, b0, b1, b2, b3 []float64, m0, m1, m2, m3 float64) {
	b0, b1, b2, b3 = b0[:len(out)], b1[:len(out)], b2[:len(out)], b3[:len(out)]
	for j := range out {
		v := out[j]
		v += m0 * b0[j]
		v += m1 * b1[j]
		v += m2 * b2[j]
		v += m3 * b3[j]
		out[j] = v
	}
}
