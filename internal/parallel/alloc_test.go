// Allocation pins for the scheduler fan-out. The race detector changes
// allocation behavior, so these run only in non-race builds (check.sh and
// CI run the package both ways).
//
//go:build !race

package parallel

import (
	"sync/atomic"
	"testing"
)

// TestForGrainFanOutAllocs pins the satellite-1 fix: a steady-state
// ForGrain invocation must not allocate at any worker count, and a
// ReduceSum no more than once. Before the pooled forJob, every For call
// allocated one closure per worker plus the WaitGroup/atomic state, which
// is why CliqueRankProduct's allocs/op grew 40 → 200 → 280 at 1/2/4
// workers.
func TestForGrainFanOutAllocs(t *testing.T) {
	var sink atomic.Int64
	body := func(lo, hi int) {
		sink.Add(int64(hi - lo))
	}
	chunkLen := func(lo, hi int) float64 { return float64(hi - lo) }
	for _, w := range []int{1, 2, 4} {
		// Warm the job pool (and the runtime's goroutine free list) before
		// measuring.
		for i := 0; i < 10; i++ {
			ForGrain(w, 1<<14, 256, body)
		}
		avg := testing.AllocsPerRun(50, func() {
			ForGrain(w, 1<<14, 256, body)
		})
		if avg > 1 {
			t.Errorf("workers=%d: ForGrain allocates %.1f allocs/op, want ≤1", w, avg)
		}
		// ReduceSum's pooled job leaves no steady-state allocation; the
		// bound of one absorbs a pool miss, as ForGrain's does.
		if avg := testing.AllocsPerRun(50, func() { ReduceSum(w, 1<<14, chunkLen) }); avg > 1 {
			t.Errorf("workers=%d: ReduceSum allocates %.1f allocs/op, want ≤1", w, avg)
		}
	}
}
