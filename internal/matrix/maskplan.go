package matrix

import (
	"sync"

	"repro/internal/parallel"
)

// MaskPlanMaxEntries is the default ceiling on a plan's gather-entry count
// (BuildMaskPlan with maxEntries <= 0). At 8 bytes per entry it bounds the
// plan's index arrays to ~512 MB; graphs whose intersection structure is
// denser than that fall back to the merge-based MaskedMulInto.
const MaskPlanMaxEntries = 1 << 26

// MaskPlan is the precomputed gather layout of the masked product
// (mt × a) ⊙ pattern. CliqueRank's power loop evaluates that product once
// per step on a *fixed* pattern with *fixed* mt, so the per-slot merge of
// MaskedMulInto — find N(i) ∩ N(j), look up both operands — is redundant
// work after the first step. The plan walks each merge once and flattens
// it into three index arrays:
//
//	dst[s] = Σ_e∈[dstPtr[s],dstPtr[s+1])  mt.Val[srcMt[e]] · a.Val[srcA[e]]
//
// srcA indexes a directly through the pattern's transpose permutation, so
// the per-step TransposeInto pass disappears along with the merges.
//
// The plan is also where dead rows are skipped. A row of mt that is
// all-zero stays all-zero through every iterate of the chain (row i of
// mt × a is a combination of a's rows weighted by mt's row i), so liveness
// is computed once and holds for the whole power loop — a static frontier:
//
//   - slots of a dead row i emit no entries (every term is 0 · a[c,j]);
//   - merge terms through a dead row c emit no entries (a[c,j] is zero at
//     every step).
//
// Both skips drop terms that are exactly +0.0 in MaskedMulInto's
// left-to-right merge sum (all chain values are finite and non-negative),
// and the surviving terms keep their ascending-column order, so the plan
// kernel is bit-identical to the merge kernel — the property test pins it.
//
// The plan holds pooled buffers; call Release when the power loop is done.
type MaskPlan struct {
	p          *Pattern
	entries    int
	grain      int
	interleave bool // entries ≥ interleaveEntries per slot (MulRangeInto)
	dstPtr     []int32
	srcMt      []int32
	srcA       []int32
}

// interleaveEntries is the mean entry count per slot from which
// MulRangeInto sums four slots side by side. Below it, on batches of
// small components with about one to three entries per slot, the
// interleave's per-group set-up costs more than the overlap saves (up to
// 1.7× slower than the slot-by-slot loop at GOMAXPROCS 1).
const interleaveEntries = 4

// i32Bufs and byteBufs recycle the plan's index and liveness arrays across
// power loops, keeping a steady-state BuildMaskPlan allocation-free.
var (
	i32Bufs  = sync.Pool{New: func() any { b := make([]int32, 0, 1024); return &b }}
	byteBufs = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}
)

func getI32Buf(n int) []int32 {
	bp := i32Bufs.Get().(*[]int32)
	b := *bp
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

func putI32Buf(b []int32) {
	if b == nil {
		return
	}
	b = b[:0]
	i32Bufs.Put(&b)
}

func getByteBuf(n int) []byte {
	bp := byteBufs.Get().(*[]byte)
	b := *bp
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}

func putByteBuf(b []byte) {
	if b == nil {
		return
	}
	b = b[:0]
	byteBufs.Put(&b)
}

// BuildMaskPlan precomputes the gather layout of (mt × a) ⊙ pattern for
// the fixed transition matrix mt. It returns nil when the layout would
// exceed maxEntries gather entries (maxEntries <= 0 selects
// MaskPlanMaxEntries) — callers fall back to MaskedMulInto, which computes
// the same bits. The plan depends on mt's values only through row
// liveness, so it stays valid as long as mt is not mutated.
func BuildMaskPlan(mt *PatVec, workers, maxEntries int) *MaskPlan {
	p := mt.P
	nnz := p.NNZ()
	if maxEntries <= 0 {
		maxEntries = MaskPlanMaxEntries
	}
	if maxEntries > 1<<30 {
		maxEntries = 1 << 30
	}
	if nnz == 0 {
		dstPtr := getI32Buf(1)
		dstPtr[0] = 0
		return &MaskPlan{p: p, grain: 1, dstPtr: dstPtr}
	}

	live := getByteBuf(p.N)
	liveGrain := parallel.GrainFor(p.N, nnz, 4096)
	parallel.ForGrain(workers, p.N, liveGrain, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			live[i] = 0
			for s := p.RowPtr[i]; s < p.RowPtr[i+1]; s++ {
				if mt.Val[s] != 0 {
					live[i] = 1
					break
				}
			}
		}
	})

	// Row i's slots are contiguous, so both passes fan out over rows and
	// write disjoint ranges. The grain targets a fixed amount of merge
	// work per chunk: each slot of row i costs ~deg(i)+deg(j).
	avgDeg := nnz/p.N + 1
	rowGrain := parallel.GrainFor(p.N, 2*nnz*avgDeg, 8192)

	// Count pass: dstPtr[s+1] = kept terms of slot s, then a serial prefix
	// sum (with the ceiling check) turns counts into offsets.
	dstPtr := getI32Buf(nnz + 1)
	parallel.ForGrain(workers, p.N, rowGrain, func(lo, hi int) {
		countPlanRows(p, live, lo, hi, dstPtr)
	})
	dstPtr[0] = 0
	var total int64
	for s := 0; s < nnz; s++ {
		total += int64(dstPtr[s+1])
		if total > int64(maxEntries) {
			putI32Buf(dstPtr)
			putByteBuf(live)
			return nil
		}
		dstPtr[s+1] += dstPtr[s]
	}
	entries := int(total)

	srcMt := getI32Buf(entries)
	srcA := getI32Buf(entries)
	parallel.ForGrain(workers, p.N, rowGrain, func(lo, hi int) {
		fillPlanRows(p, live, lo, hi, dstPtr, srcMt, srcA)
	})
	putByteBuf(live)

	return &MaskPlan{
		p:          p,
		entries:    entries,
		grain:      parallel.GrainFor(nnz, entries+nnz, 2048),
		interleave: entries >= interleaveEntries*nnz,
		dstPtr:     dstPtr,
		srcMt:      srcMt,
		srcA:       srcA,
	}
}

// countPlanRows walks the merge of rows [lo, hi) and records, per slot,
// how many terms survive the liveness filter.
func countPlanRows(p *Pattern, live []byte, lo, hi int, cnt []int32) {
	for i := lo; i < hi; i++ {
		rs, re := p.RowPtr[i], p.RowPtr[i+1]
		if live[i] == 0 {
			for s := rs; s < re; s++ {
				cnt[s+1] = 0
			}
			continue
		}
		for s := rs; s < re; s++ {
			j := p.Col[s]
			ai, bi := rs, p.RowPtr[j]
			be := p.RowPtr[j+1]
			var n int32
			for ai < re && bi < be {
				ca, cb := p.Col[ai], p.Col[bi]
				switch {
				case ca < cb:
					ai++
				case ca > cb:
					bi++
				default:
					if live[ca] != 0 {
						n++
					}
					ai++
					bi++
				}
			}
			cnt[s+1] = n
		}
	}
}

// fillPlanRows repeats the merge of countPlanRows, writing each surviving
// term's operand slots: srcMt is the slot of mt[i,c] in row i, and srcA is
// the slot of a[c,j] — reached through the transpose permutation, so the
// kernel gathers from a directly without a transpose pass.
func fillPlanRows(p *Pattern, live []byte, lo, hi int, dstPtr, srcMt, srcA []int32) {
	for i := lo; i < hi; i++ {
		rs, re := p.RowPtr[i], p.RowPtr[i+1]
		if live[i] == 0 {
			continue
		}
		for s := rs; s < re; s++ {
			j := p.Col[s]
			ai, bi := rs, p.RowPtr[j]
			be := p.RowPtr[j+1]
			e := dstPtr[s]
			for ai < re && bi < be {
				ca, cb := p.Col[ai], p.Col[bi]
				switch {
				case ca < cb:
					ai++
				case ca > cb:
					bi++
				default:
					if live[ca] != 0 {
						srcMt[e] = ai
						srcA[e] = p.tIdx[bi]
						e++
					}
					ai++
					bi++
				}
			}
		}
	}
}

// Entries returns the number of gather entries in the plan.
func (pl *MaskPlan) Entries() int { return pl.entries }

// Grain returns the slot-chunk size precomputed for this plan's gather
// density — a pure function of the graph, so the chunk set (and therefore
// the result bits of the disjoint-write kernel) is worker-independent.
func (pl *MaskPlan) Grain() int { return pl.grain }

// MulRangeInto evaluates dst[s] for slots s in [lo, hi). Chunks write
// disjoint ranges of dst.Val, so fanning the full [0, nnz) range out
// through parallel.ForGrain with any worker count produces identical bits.
// The caller is responsible for passing the operands the plan was built
// for (CliqueRank hoists one closure over the loop); MulInto is the
// checked form. It runs every power-loop step, and the core package's
// TestFusionInnerLoopAllocs pins its steady state at zero allocations.
//
// On a plan of at least interleaveEntries entries per slot, four
// consecutive slots are summed side by side over their common entry
// count, then each finishes its own remaining entries, and the last
// (hi−lo) mod 4 slots are summed singly; sparser plans, such as batches
// of small components, are summed slot by slot, since a group of slots
// with a few entries each has little to overlap. Every slot keeps its own
// accumulator and adds its entries in plan order, so each sum has the
// bits of a slot-at-a-time loop; the interleave only overlaps four
// independent add-latency chains.
func (pl *MaskPlan) MulRangeInto(dst, mt, a *PatVec, lo, hi int) {
	dstPtr, srcMt, srcA := pl.dstPtr, pl.srcMt, pl.srcA
	mv, av, dv := mt.Val, a.Val, dst.Val
	s := lo
	for ; pl.interleave && s+4 <= hi; s += 4 {
		e0, e1, e2, e3, e4 := dstPtr[s], dstPtr[s+1], dstPtr[s+2], dstPtr[s+3], dstPtr[s+4]
		n := min(e1-e0, e2-e1, e3-e2, e4-e3)
		m0 := srcMt[e0 : e0+n]
		m1, m2, m3 := srcMt[e1:][:len(m0)], srcMt[e2:][:len(m0)], srcMt[e3:][:len(m0)]
		a0, a1, a2, a3 := srcA[e0:][:len(m0)], srcA[e1:][:len(m0)], srcA[e2:][:len(m0)], srcA[e3:][:len(m0)]
		var s0, s1, s2, s3 float64
		for e := range m0 {
			s0 += mv[m0[e]] * av[a0[e]]
			s1 += mv[m1[e]] * av[a1[e]]
			s2 += mv[m2[e]] * av[a2[e]]
			s3 += mv[m3[e]] * av[a3[e]]
		}
		dv[s] = gatherSum(s0, mv, av, srcMt[e0+n:e1], srcA[e0+n:e1])
		dv[s+1] = gatherSum(s1, mv, av, srcMt[e1+n:e2], srcA[e1+n:e2])
		dv[s+2] = gatherSum(s2, mv, av, srcMt[e2+n:e3], srcA[e2+n:e3])
		dv[s+3] = gatherSum(s3, mv, av, srcMt[e3+n:e4], srcA[e3+n:e4])
	}
	for ; s < hi; s++ {
		var sum float64
		for e := dstPtr[s]; e < dstPtr[s+1]; e++ {
			sum += mv[srcMt[e]] * av[srcA[e]]
		}
		dv[s] = sum
	}
}

// gatherSum adds mv[m[e]]·av[a[e]] to sum for each entry e in order.
func gatherSum(sum float64, mv, av []float64, m, a []int32) float64 {
	a = a[:len(m)]
	for e := range m {
		sum += mv[m[e]] * av[a[e]]
	}
	return sum
}

// MulInto writes (mt × a) ⊙ pattern into dst using the plan, fanning slot
// chunks out over workers goroutines. It is the validated counterpart of
// MulRangeInto and is bit-identical to TransposeInto + MaskedMulInto.
func (pl *MaskPlan) MulInto(dst, mt, a *PatVec, workers int) *PatVec {
	if mt.P != pl.p || a.P != pl.p || dst.P != pl.p {
		//lint:invariant graph-structure preconditions are programmer errors; tests assert these panics
		panic("matrix: MulInto requires operands on the plan's pattern")
	}
	parallel.ForGrain(workers, pl.p.NNZ(), pl.grain, func(lo, hi int) {
		pl.MulRangeInto(dst, mt, a, lo, hi)
	})
	return dst
}

// Release returns the plan's pooled buffers. The plan must not be used
// afterwards.
func (pl *MaskPlan) Release() {
	if pl == nil {
		return
	}
	// Put order mirrors the reversed Get order of BuildMaskPlan (dstPtr,
	// srcMt, srcA): the pool is LIFO, so the next build pops buffers of
	// matching capacity instead of re-allocating the large entry arrays.
	putI32Buf(pl.srcA)
	putI32Buf(pl.srcMt)
	putI32Buf(pl.dstPtr)
	pl.dstPtr, pl.srcMt, pl.srcA = nil, nil, nil
}
