package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// planPattern builds a random symmetric pattern for the plan tests,
// reusing pattern_test's randomPattern and discarding the edge list.
func planPattern(rng *rand.Rand, n int, density float64) *Pattern {
	p, _ := randomPattern(rng, n, density)
	return p
}

// chainOperands builds (mt, a) pairs obeying the CliqueRank chain
// invariant the plan exploits: values are finite and non-negative, some
// rows of mt are entirely zero (dead), a's rows are zero exactly where
// mt's are, and live rows may still contain scattered exact zeros (the
// pow-underflow case the liveness scan must not be fooled by).
func chainOperands(rng *rand.Rand, p *Pattern) (mt, a *PatVec) {
	mt = NewPatVec(p)
	a = NewPatVec(p)
	dead := make([]bool, p.N)
	for i := range dead {
		dead[i] = rng.Float64() < 0.3
	}
	for i := 0; i < p.N; i++ {
		if dead[i] {
			continue
		}
		for s := p.RowPtr[i]; s < p.RowPtr[i+1]; s++ {
			if rng.Float64() < 0.15 {
				mt.Val[s] = 0 // underflow-style zero inside a live row
			} else {
				mt.Val[s] = rng.Float64()
			}
			a.Val[s] = rng.Float64()
		}
	}
	return mt, a
}

// TestMaskPlanMatchesMaskedMulBitwise is the plan's bit-identity property
// test: on random patterns and chain-shaped operands, the gather kernel
// must reproduce TransposeInto + MaskedMulInto to the last bit, for every
// worker count, and MulRangeInto must do so on every window of 1–9 slots
// at every offset, so each position of a slot in the four-slot interleave
// and each singly summed remainder is covered. The test checks that some
// plans interleave and some do not, and that the interleaving ones hold
// zero-entry slots (dead rows) and groups of four with uneven entry
// counts.
func TestMaskPlanMatchesMaskedMulBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var interleaved, single, emptySlot, unevenGroup bool
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		density := 0.05 + rng.Float64()*0.4
		if trial >= 30 {
			density += 0.5 // dense enough for most plans to interleave
		}
		p := planPattern(rng, n, density)
		mt, a := chainOperands(rng, p)

		at := NewPatVec(p)
		a.TransposeInto(at)
		want := NewPatVec(p)
		MaskedMulInto(want, mt, at, 1)

		pl := BuildMaskPlan(mt, 1, 0)
		if pl == nil {
			t.Fatalf("trial %d: plan unexpectedly over the entry ceiling", trial)
		}
		for _, w := range []int{1, 2, 4} {
			got := NewPatVec(p)
			pl.MulInto(got, mt, a, w)
			for s := range want.Val {
				if math.Float64bits(got.Val[s]) != math.Float64bits(want.Val[s]) {
					t.Fatalf("trial %d workers=%d: slot %d = %x, want %x",
						trial, w, s, math.Float64bits(got.Val[s]), math.Float64bits(want.Val[s]))
				}
			}
		}
		nnz := p.NNZ()
		count := func(s int) int32 { return pl.dstPtr[s+1] - pl.dstPtr[s] }
		interleaved, single = interleaved || pl.interleave, single || !pl.interleave
		for s := 0; pl.interleave && s < nnz; s++ {
			emptySlot = emptySlot || count(s) == 0
			if s+4 <= nnz {
				unevenGroup = unevenGroup || count(s) != count(s+1) || count(s) != count(s+2) || count(s) != count(s+3)
			}
		}
		const untouched = 0x7ff4dead
		got := NewPatVec(p)
		for width := 1; width <= 9; width++ {
			for lo := 0; lo+width <= nnz; lo++ {
				hi := lo + width
				for s := range got.Val {
					got.Val[s] = math.Float64frombits(untouched)
				}
				pl.MulRangeInto(got, mt, a, lo, hi)
				for s := range got.Val {
					wantBits := uint64(untouched)
					if s >= lo && s < hi {
						wantBits = math.Float64bits(want.Val[s])
					}
					if math.Float64bits(got.Val[s]) != wantBits {
						t.Fatalf("trial %d window [%d, %d): slot %d = %x, want %x",
							trial, lo, hi, s, math.Float64bits(got.Val[s]), wantBits)
					}
				}
			}
		}
		pl.Release()
	}
	if !interleaved || !single || !emptySlot || !unevenGroup {
		t.Fatalf("coverage: interleaving plan %v, slot-by-slot plan %v, zero-entry slot %v, uneven group of four %v",
			interleaved, single, emptySlot, unevenGroup)
	}
}

// TestMaskPlanSkipsDeadWork asserts the liveness filter actually drops
// entries: a half-dead graph's plan must be strictly smaller than the
// all-live plan of the same pattern.
func TestMaskPlanSkipsDeadWork(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := planPattern(rng, 60, 0.3)
	full := NewPatVec(p)
	for s := range full.Val {
		full.Val[s] = 1
	}
	plFull := BuildMaskPlan(full, 1, 0)
	if plFull == nil || plFull.Entries() == 0 {
		t.Fatalf("full plan: %+v", plFull)
	}
	half := NewPatVec(p)
	for i := 0; i < p.N; i += 2 {
		for s := p.RowPtr[i]; s < p.RowPtr[i+1]; s++ {
			half.Val[s] = 1
		}
	}
	plHalf := BuildMaskPlan(half, 1, 0)
	if plHalf == nil {
		t.Fatal("half plan over the ceiling")
	}
	if plHalf.Entries() >= plFull.Entries() {
		t.Fatalf("dead rows not skipped: half=%d full=%d entries", plHalf.Entries(), plFull.Entries())
	}
	plFull.Release()
	plHalf.Release()
}

// TestMaskPlanEntryCeiling asserts the fallback contract: a ceiling the
// layout cannot fit returns nil instead of a truncated plan.
func TestMaskPlanEntryCeiling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p := planPattern(rng, 30, 0.5)
	mt := NewPatVec(p)
	for s := range mt.Val {
		mt.Val[s] = 1
	}
	if pl := BuildMaskPlan(mt, 1, 1); pl != nil {
		t.Fatalf("ceiling=1 returned a plan with %d entries", pl.Entries())
	}
}

// TestMaskPlanWorkerIndependentBuild asserts the plan layout itself is a
// pure function of the graph: building with different worker counts must
// produce identical index arrays.
func TestMaskPlanWorkerIndependentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := planPattern(rng, 50, 0.2)
	mt, _ := chainOperands(rng, p)
	ref := BuildMaskPlan(mt, 1, 0)
	for _, w := range []int{2, 4, 8} {
		pl := BuildMaskPlan(mt, w, 0)
		if pl.Entries() != ref.Entries() || pl.Grain() != ref.Grain() {
			t.Fatalf("workers=%d: entries/grain %d/%d, want %d/%d",
				w, pl.Entries(), pl.Grain(), ref.Entries(), ref.Grain())
		}
		for s := range ref.dstPtr {
			if pl.dstPtr[s] != ref.dstPtr[s] {
				t.Fatalf("workers=%d: dstPtr[%d] differs", w, s)
			}
		}
		for e := range ref.srcMt {
			if pl.srcMt[e] != ref.srcMt[e] || pl.srcA[e] != ref.srcA[e] {
				t.Fatalf("workers=%d: entry %d differs", w, e)
			}
		}
		pl.Release()
	}
	ref.Release()
}
