package core

import (
	"repro/internal/matrix"

	"repro/internal/parallel"
)

// arena recycles the working buffers of the fusion reinforcement loop —
// PatVec value vectors, slot/edge index slices — across rounds, so the
// steady state of RunFusion allocates only what its result retains. Get/put
// calls happen on the fusion goroutine (kernels fan out internally but
// never touch the arena), with float64 buffers additionally backed by a
// sync.Pool so CliqueRank scratch survives across rounds. A nil arena is
// valid and degrades every get to a fresh allocation, which is how the
// exported single-shot entry points behave.
type arena struct {
	f64   parallel.Pool
	i32   [][]int32
	edges [][]matrix.Edge
}

// getF64 returns a zeroed length-n buffer.
func (a *arena) getF64(n int) []float64 {
	if a == nil {
		return make([]float64, n)
	}
	b := a.f64.Get(n)
	for i := range b {
		b[i] = 0
	}
	return b
}

func (a *arena) putF64(b []float64) {
	if a != nil {
		a.f64.Put(b)
	}
}

// getI32 returns a length-n buffer with unspecified contents.
func (a *arena) getI32(n int) []int32 {
	if a != nil {
		for k := len(a.i32) - 1; k >= 0; k-- {
			if cap(a.i32[k]) >= n {
				b := a.i32[k][:n]
				a.i32[k] = a.i32[len(a.i32)-1]
				a.i32 = a.i32[:len(a.i32)-1]
				return b
			}
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
		for k := len(a.edges) - 1; k >= 0; k-- {
			if cap(a.edges[k]) >= n {
				b := a.edges[k][:0]
				a.edges[k] = a.edges[len(a.edges)-1]
				a.edges = a.edges[:len(a.edges)-1]
				return b
			}
		}
	}
	return make([]matrix.Edge, 0, n)
}

func (a *arena) putEdges(b []matrix.Edge) {
	if a != nil && b != nil {
		a.edges = append(a.edges, b[:0])
	}
}
