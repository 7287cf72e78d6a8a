package parallel

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	for _, n := range []int{1, 2, 7, 64} {
		if got := Workers(n); got != n {
			t.Fatalf("Workers(%d) = %d", n, got)
		}
	}
}

// TestForCoversAllOnce asserts every index in [0, n) is visited exactly once
// for sizes around the chunk-grain boundaries and several worker counts.
func TestForCoversAllOnce(t *testing.T) {
	for _, n := range []int{0, 1, Grain - 1, Grain, Grain + 1, 3*Grain + 17, 10 * Grain} {
		for _, w := range []int{0, 1, 2, 3, 16} {
			visits := make([]int32, n)
			var mu sync.Mutex
			For(w, n, func(lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("n=%d w=%d: bad chunk [%d,%d)", n, w, lo, hi)
				}
				mu.Lock()
				for i := lo; i < hi; i++ {
					visits[i]++
				}
				mu.Unlock()
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, v)
				}
			}
		}
	}
}

// TestForChunksAreFixed asserts chunk boundaries are a pure function of n:
// the same [lo, hi) set regardless of worker count.
func TestForChunksAreFixed(t *testing.T) {
	n := 5*Grain + 3
	ranges := func(w int) map[[2]int]bool {
		var mu sync.Mutex
		set := make(map[[2]int]bool)
		For(w, n, func(lo, hi int) {
			mu.Lock()
			set[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return set
	}
	serial := ranges(1)
	for _, w := range []int{2, 4, 9} {
		got := ranges(w)
		if len(got) != len(serial) {
			t.Fatalf("w=%d: %d chunks, serial has %d", w, len(got), len(serial))
		}
		for r := range serial {
			if !got[r] {
				t.Fatalf("w=%d: missing chunk %v", w, r)
			}
		}
	}
}

// TestForGrainCoversAllOnce asserts every index in [0, n) is visited
// exactly once for a spread of explicit grains, sizes around the chunk
// boundaries, and several worker counts.
func TestForGrainCoversAllOnce(t *testing.T) {
	for _, g := range []int{1, 3, 100, 4096} {
		for _, n := range []int{0, 1, g - 1, g, g + 1, 3*g + 1, 10 * g} {
			for _, w := range []int{0, 1, 2, 3, 16} {
				visits := make([]int32, n)
				var mu sync.Mutex
				ForGrain(w, n, g, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("g=%d n=%d w=%d: bad chunk [%d,%d)", g, n, w, lo, hi)
					}
					if hi-lo > g {
						t.Errorf("g=%d n=%d w=%d: oversize chunk [%d,%d)", g, n, w, lo, hi)
					}
					mu.Lock()
					for i := lo; i < hi; i++ {
						visits[i]++
					}
					mu.Unlock()
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("g=%d n=%d w=%d: index %d visited %d times", g, n, w, i, v)
					}
				}
			}
		}
	}
}

// TestForGrainChunksAreFixed asserts the chunk set is a pure function of
// (n, grain): identical for every worker count, and aligned to multiples
// of the grain.
func TestForGrainChunksAreFixed(t *testing.T) {
	n, g := 5*37+13, 37
	ranges := func(w int) map[[2]int]bool {
		var mu sync.Mutex
		set := make(map[[2]int]bool)
		ForGrain(w, n, g, func(lo, hi int) {
			mu.Lock()
			set[[2]int{lo, hi}] = true
			mu.Unlock()
		})
		return set
	}
	serial := ranges(1)
	for r := range serial {
		if r[0]%g != 0 {
			t.Fatalf("chunk %v not aligned to grain %d", r, g)
		}
	}
	for _, w := range []int{2, 4, 9} {
		got := ranges(w)
		if len(got) != len(serial) {
			t.Fatalf("w=%d: %d chunks, serial has %d", w, len(got), len(serial))
		}
		for r := range serial {
			if !got[r] {
				t.Fatalf("w=%d: missing chunk %v", w, r)
			}
		}
	}
}

// TestForGrainDegenerate pins the non-positive-grain fallback: the loop
// must still cover [0, n) exactly once.
func TestForGrainDegenerate(t *testing.T) {
	n := 17
	visits := make([]int32, n)
	ForGrain(1, n, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			visits[i]++
		}
	})
	for i, v := range visits {
		if v != 1 {
			t.Fatalf("grain=0: index %d visited %d times", i, v)
		}
	}
}

func TestGrainFor(t *testing.T) {
	cases := []struct {
		n, work, target, want int
	}{
		{1000, 1000, 1, 1},             // one unit per item, one per chunk
		{1000, 1000, 10, 10},           // ten items per chunk
		{1000, 10_000, 100, 10},        // ten units per item
		{100, 10, 1000, 100},           // clamp to n
		{100, 1_000_000, 1, 1},         // clamp to 1
		{0, 100, 100, Grain},           // degenerate n
		{100, 0, 100, Grain},           // degenerate work
		{100, 100, 0, Grain},           // degenerate target
		{1 << 20, 1 << 40, 1 << 22, 4}, // no int overflow at large sizes
	}
	for _, c := range cases {
		if got := GrainFor(c.n, c.work, c.target); got != c.want {
			t.Errorf("GrainFor(%d, %d, %d) = %d, want %d", c.n, c.work, c.target, got, c.want)
		}
	}
}

// TestReduceSumBitIdentical asserts the reduction produces the exact same
// float64 bits for every worker count, on inputs adversarial to naive
// reassociation (alternating magnitudes), at lengths on both sides of
// reduceFanOutMin: the serial fold below it and the fan-out above it
// bracket the same chunk partials.
func TestReduceSumBitIdentical(t *testing.T) {
	for _, n := range []int{7*Grain + 41, reduceFanOutMin - Grain - 3, reduceFanOutMin, reduceFanOutMin + 5*Grain + 7} {
		vals := make([]float64, n)
		for i := range vals {
			// Mix of huge and tiny terms so any reassociation shows up in the
			// low bits of the sum.
			if i%2 == 0 {
				vals[i] = 1e16 / float64(i+1)
			} else {
				vals[i] = 1e-16 * float64(i)
			}
		}
		sum := func(lo, hi int) float64 {
			var s float64
			for i := lo; i < hi; i++ {
				s += vals[i]
			}
			return s
		}
		// The reference fold: Grain chunk sums added in ascending order.
		var want float64
		for lo := 0; lo < n; lo += Grain {
			want += sum(lo, min(lo+Grain, n))
		}
		for _, w := range []int{0, 1, 2, 3, 4, 8} {
			for rep := 0; rep < 10; rep++ {
				if got := ReduceSum(w, n, sum); got != want {
					t.Fatalf("n=%d workers=%d rep=%d: sum %v != chunk-ordered fold %v", n, w, rep, got, want)
				}
			}
		}
	}
}

func TestReduceSumEmpty(t *testing.T) {
	if got := ReduceSum(4, 0, func(lo, hi int) float64 { return 1 }); got != 0 {
		t.Fatalf("empty reduction = %v, want 0", got)
	}
}

// BenchmarkReduceSum times the fold of |x| over vectors around
// reduceFanOutMin. Each fold reads a vector a two-worker fan-out has just
// written, as ITER folds the |Δx| terms its sweeps write; fold-ns/op times
// the fold alone. Compare a length's workers=1 and workers=2 rows.
func BenchmarkReduceSum(b *testing.B) {
	for _, n := range []int{1 << 14, 1 << 16, 1 << 17, 1 << 18, 1 << 20} {
		x := make([]float64, n)
		gen := 0
		write := func(lo, hi int) {
			for i := lo; i < hi; i++ {
				x[i] = float64((i+gen)&1023) - 511.5
			}
		}
		abs := func(lo, hi int) float64 {
			var s float64
			for _, v := range x[lo:hi] {
				s += math.Abs(v)
			}
			return s
		}
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(b *testing.B) {
				var fold time.Duration
				for i := 0; i < b.N; i++ {
					gen++
					For(2, n, write)
					start := time.Now()
					ReduceSum(w, n, abs)
					fold += time.Since(start)
				}
				b.ReportMetric(float64(fold.Nanoseconds())/float64(b.N), "fold-ns/op")
			})
		}
	}
}
