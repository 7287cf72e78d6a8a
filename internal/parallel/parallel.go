// Package parallel is the repository's single deterministic chunked
// scheduler. Every data-parallel loop of the resolution pipeline — ITER's
// bipartite sweeps, CliqueRank's masked matrix powers, RSS edge sampling,
// the dense and sparse matrix kernels — fans out through this package, so
// there is exactly one place where the determinism argument has to hold:
//
//   - The index range [0, n) is split into fixed-size chunks (Grain
//     elements by default; a per-kernel size via ForGrain/GrainFor). Chunk
//     boundaries depend only on n and the grain — never on the worker
//     count or GOMAXPROCS — so the set of fn(lo, hi) calls is identical
//     for every Workers setting.
//   - Workers race only for *which* chunk to run next (one atomic add), not
//     for how a chunk is computed. A kernel whose chunks write disjoint
//     state (out[lo:hi], a per-row slice) is therefore bit-identical serial
//     vs. parallel.
//   - Reductions never accumulate across goroutines: each chunk produces a
//     partial into its own slot and the partials are folded in ascending
//     chunk order after the barrier (ReduceSum), so floating-point rounding
//     is schedule-independent too.
//
// The erlint determinism analyzer includes this package in its kernel
// scope: no ambient time, environment, or process-seeded randomness.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Grain is the default chunk size, in elements (or rows), of a scheduled
// loop. It is deliberately a package constant rather than a knob: changing
// it changes the bracketing of chunked reductions, which would silently
// shift bit-identical results between versions. 256 elements amortize one
// goroutine handoff and one guard poll over enough work that even the
// cheapest per-element kernels (an add and a multiply) win from fanning
// out, while a sub-256 input stays on the caller's goroutine with no
// scheduling overhead at all.
//
// Kernels whose per-element cost is far from that baseline pick their own
// grain with ForGrain/GrainFor. Reductions (ReduceSum) always bracket at
// Grain — their fold order is part of the bit-identity contract.
const Grain = 256

// GrainFor picks a chunk size for a loop of n items that together perform
// roughly work abstract units, aiming for target units per chunk. It is a
// pure function of the three sizes — never of the worker count or
// GOMAXPROCS — so the chunk set it induces is deterministic, and results
// of disjoint-write kernels stay bit-identical across worker counts. The
// result is clamped to [1, n] (and to Grain when the sizes are degenerate).
func GrainFor(n, work, target int) int {
	if n <= 0 || work <= 0 || target <= 0 {
		return Grain
	}
	g := int(int64(n) * int64(target) / int64(work))
	if g < 1 {
		g = 1
	}
	if g > n {
		g = n
	}
	return g
}

// Workers resolves a worker-count knob: values below 1 (the zero value of
// the Workers options fields) select runtime.GOMAXPROCS(0), anything else
// is taken literally. The result is how many goroutines For may use, not a
// promise — small inputs use fewer.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// chunks returns the number of Grain-sized chunks covering [0, n).
func chunks(n int) int { return (n + Grain - 1) / Grain }

// For runs fn over [0, n) in fixed Grain-sized chunks using at most workers
// goroutines (workers < 1 selects GOMAXPROCS). fn is invoked once per chunk
// with a half-open range [lo, hi); the same chunk set is produced for every
// worker count, so kernels whose chunks touch disjoint state are
// bit-identical serial vs. parallel. When the input fits one chunk, or only
// one worker is available, fn runs on the calling goroutine with no
// goroutine or synchronization overhead.
func For(workers, n int, fn func(lo, hi int)) {
	ForGrain(workers, n, Grain, fn)
}

// forJob is the pooled fan-out state of ForGrain. The no-arg body method
// value is bound once, when the pool constructs the job, so spawning a
// worker is `go j.body()` — no per-invocation closure, which is what kept
// CliqueRankProduct's allocs/op climbing with the worker count. The job is
// recycled only after wg.Wait has seen every worker exit, so a pooled job
// is never live on two invocations at once.
type forJob struct {
	next  atomic.Int64
	wg    sync.WaitGroup
	n     int
	grain int
	fn    func(lo, hi int)
	body  func()
}

func (j *forJob) run() {
	defer j.wg.Done()
	for {
		c := int(j.next.Add(1)) - 1
		lo := c * j.grain
		if lo >= j.n {
			return
		}
		hi := lo + j.grain
		if hi > j.n {
			hi = j.n
		}
		j.fn(lo, hi)
	}
}

var forJobs = sync.Pool{New: func() any {
	j := &forJob{}
	j.body = j.run
	return j
}}

// ForGrain is For with an explicit chunk size. The grain must be a pure
// function of the problem size (use GrainFor), never of the worker count:
// the chunk set [0,g), [g,2g), … depends only on n and grain, so
// disjoint-write kernels remain bit-identical across worker counts, just
// as with For. The calling goroutine participates as one of the workers,
// and the fan-out state is pooled, so a steady-state invocation performs
// no allocation at any worker count. Every kernel fans out through
// ForGrain, so anything allocated per chunk would multiply across the
// whole pipeline; TestForGrainFanOutAllocs pins the count.
func ForGrain(workers, n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if n <= grain {
		// One chunk: run it before resolving the worker count, which reads
		// GOMAXPROCS under the scheduler lock.
		fn(0, n)
		return
	}
	nc := (n + grain - 1) / grain
	w := Workers(workers)
	if w > nc {
		w = nc
	}
	if w <= 1 {
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			fn(lo, hi)
		}
		return
	}
	j := forJobs.Get().(*forJob)
	j.next.Store(0)
	j.n, j.grain, j.fn = n, grain, fn
	j.wg.Add(w)
	for i := 1; i < w; i++ {
		//lint:ignore goleak workers drain a bounded chunk counter and exit; ForGrain returns only after wg.Wait sees them all finish
		go j.body()
	}
	j.body()
	j.wg.Wait()
	j.fn = nil
	forJobs.Put(j)
}

// reduceJob is the pooled state of a ReduceSum fan-out: the per-chunk
// partials and the chunk body, a method value bound once when the pool
// builds the job, so a steady-state reduction hands For no fresh closure.
type reduceJob struct {
	parts []float64
	fn    func(lo, hi int) float64
	body  func(lo, hi int)
}

func (j *reduceJob) chunk(lo, hi int) { j.parts[lo/Grain] = j.fn(lo, hi) }

var reduceJobs = sync.Pool{New: func() any {
	j := &reduceJob{}
	j.body = j.chunk
	return j
}}

// reduceFanOutMin is the length below which ReduceSum folds its chunks on
// the calling goroutine at any worker count. A fold is one load and one add
// per element, so a short one gains nothing from a fan-out: at GOMAXPROCS
// 2, a fold of 2^16 freshly written elements took longer fanned out than
// serially, and from 2^17 on two workers gained (BenchmarkReduceSum;
// DESIGN §9, "ITER at two workers").
const reduceFanOutMin = 1 << 17

// ReduceSum computes an order-stable parallel sum: fn returns the partial
// for chunk [lo, hi), each partial lands in the slot of its chunk index,
// and the partials are folded in ascending chunk order. The bracketing —
// (((p0+p1)+p2)+…) over Grain-sized chunk sums — is therefore a pure
// function of n, independent of the worker count and the goroutine
// schedule, so serial and parallel runs agree to the last bit. Below
// reduceFanOutMin elements the same chunks fold serially. The fan-out
// state is pooled, so a steady-state call performs no allocation
// (TestForGrainFanOutAllocs).
func ReduceSum(workers, n int, fn func(lo, hi int) float64) float64 {
	if n <= 0 {
		return 0
	}
	nc := chunks(n)
	if nc == 1 || n < reduceFanOutMin || Workers(workers) == 1 {
		// Same chunking, same fold order, no goroutines: sum += p_c in
		// ascending c is exactly the parallel path's bracketing.
		var sum float64
		for lo := 0; lo < n; lo += Grain {
			hi := lo + Grain
			if hi > n {
				hi = n
			}
			sum += fn(lo, hi)
		}
		return sum
	}
	j := reduceJobs.Get().(*reduceJob)
	if cap(j.parts) < nc {
		j.parts = make([]float64, nc)
	}
	j.parts = j.parts[:nc]
	j.fn = fn
	For(workers, n, j.body)
	var sum float64
	for _, v := range j.parts {
		sum += v
	}
	j.fn = nil
	reduceJobs.Put(j)
	return sum
}
