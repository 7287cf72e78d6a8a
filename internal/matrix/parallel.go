package matrix

import (
	"repro/internal/parallel"
)

// parallelRows fans fn out over the half-open row range [0, n) through the
// repository's single deterministic scheduler (internal/parallel): fixed
// Grain-sized chunks independent of GOMAXPROCS, so the row kernels here —
// which write disjoint per-row output — are bit-identical serial vs.
// parallel. Inputs below one chunk run on the calling goroutine with no
// goroutine overhead; workers < 1 selects GOMAXPROCS.
func parallelRows(workers, n int, fn func(lo, hi int)) {
	parallel.For(workers, n, fn)
}
