package core

import "repro/internal/matrix"

// arena recycles the working buffers of the fusion reinforcement loop —
// PatVec value vectors, CliqueRank scratch, slot/edge index slices — across
// rounds, so the steady state of RunFusion allocates only what its result
// retains. Get/put calls happen on the fusion goroutine (kernels fan out
// internally but never touch the arena), so the free lists need no
// locking, and a put never allocates. A nil arena is valid and degrades
// every get to a fresh allocation, which is how the exported single-shot
// entry points behave.
type arena struct {
	f64   [][]float64
	i32   [][]int32
	edges [][]matrix.Edge
}

// take removes from list, and returns resliced to length n, the most
// recently put buffer with capacity at least n; it returns nil if none fits.
func take[T any](list *[][]T, n int) []T {
	l := *list
	for k := len(l) - 1; k >= 0; k-- {
		if cap(l[k]) >= n {
			b := l[k][:n]
			l[k] = l[len(l)-1]
			*list = l[:len(l)-1]
			return b
		}
	}
	return nil
}

// getF64 returns a zeroed length-n buffer.
func (a *arena) getF64(n int) []float64 {
	if a != nil {
		if b := take(&a.f64, n); b != nil {
			clear(b)
			return b
		}
	}
	return make([]float64, n)
}

func (a *arena) putF64(b []float64) {
	if a != nil && b != nil {
		a.f64 = append(a.f64, b[:0])
	}
}

// getI32 returns a length-n buffer with unspecified contents.
func (a *arena) getI32(n int) []int32 {
	if a != nil {
		if b := take(&a.i32, n); b != nil {
			return b
		}
	}
	return make([]int32, n)
}

func (a *arena) putI32(b []int32) {
	if a != nil && b != nil {
		a.i32 = append(a.i32, b[:0])
	}
}

// getEdges returns an empty edge buffer with at least capacity n.
func (a *arena) getEdges(n int) []matrix.Edge {
	if a != nil {
		if b := take(&a.edges, n); b != nil {
			return b[:0]
		}
	}
	return make([]matrix.Edge, 0, n)
}

func (a *arena) putEdges(b []matrix.Edge) {
	if a != nil && b != nil {
		a.edges = append(a.edges, b[:0])
	}
}
