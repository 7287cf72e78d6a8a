package core

import (
	"sync/atomic"

	"repro/internal/index"
	"repro/internal/matrix"
)

// RecordGraph is G_r (§VI-A): nodes are records, edges are candidate pairs,
// edge weights are the ITER similarities s(ri, rj). The symmetric sparsity
// pattern is shared by every matrix in the CliqueRank chain.
type RecordGraph struct {
	// Pattern is the adjacency structure M_n.
	Pattern *matrix.Pattern
	// S holds the symmetric edge weights.
	S *matrix.PatVec
	// PairSlot maps a pair's index, its candidate pair ID on a graph over
	// every candidate pair, to the slot of its (I → J) entry, or -1 when
	// the pair's similarity was 0 and the edge was dropped.
	PairSlot []int32
	// Edges lists the pair indexes that became edges, ascending.
	Edges []int32
	// SlotRow maps every directed slot to its row index, so the CliqueRank
	// and RSS readouts recover slot coordinates in O(1) instead of a binary
	// search over RowPtr per pair.
	SlotRow []int32

	// The layout's inputs. pairs gives the global pair ID of each PairSlot
	// index, nil for the identity (a graph over every candidate pair);
	// ends gives each pair's endpoints as graph nodes, by PairSlot index;
	// lex lists the PairSlot indexes in (I, J) order, nil when index order
	// is that order. tIdx is the full transpose window; the pattern,
	// S, Edges and SlotRow are re-cut from their windows' capacity on
	// every lay. lays counts the lays.
	pairs, lex, tIdx []int32
	ends             []index.Pair
	lays             int
	// parts, on a graph of several components, lists each component's
	// first node and then the node count: the components' node ranges.
	parts []int32

	// arena, when non-nil, holds CliqueRank's workspace and scratch for
	// the rank in progress.
	arena *arena
	// planBudget, set on the graphs a FusionRun holds, is the run's count
	// of mask-plan entries its graphs may still hold; plan is the plan
	// this graph holds against it (see maskPlan).
	planBudget *atomic.Int64
	plan       *matrix.MaskPlan
}

// BuildRecordGraph assembles G_r from the candidate set and per-pair
// similarities. Pairs with similarity 0 (possible when every shared term
// ended with weight 0) are excluded: a zero-weight edge can never be chosen
// by the walk and would only add zero rows to the transition matrix.
func BuildRecordGraph(g *index.Graph, s []float64, numRecords int) *RecordGraph {
	rg := &wholeLayout(g, numRecords, nil).graphs[0]
	rg.lay(s)
	return rg
}

// graphLayout holds record graphs as windows of run-wide arrays, so a
// fusion run's graphs cost a fixed handful of allocations whatever their
// count. Graph u's windows start at two offsets, nodeLo (a running sum of
// n+2: rowPtr keeps one spare entry for the counting fill) and pairLo[u]
// (a running sum of m): Col, the transpose, S and SlotRow take 2m entries
// from 2·pairLo[u] (two directed slots per candidate pair), and PairSlot,
// Edges, the pair order, the endpoints and the output m from pairLo[u].
type graphLayout struct {
	graphs []RecordGraph
	pats   []matrix.Pattern
	vecs   []matrix.PatVec
	// i32 and f64 are the slabs every array below is cut from; pairLo has
	// one more entry than graphs. order lists the graphs' pairs (global
	// IDs for a sharded layout, the (I, J) order of the whole graph's), and
	// ends and out, in a sharded layout only, their endpoints as graph
	// nodes and their probabilities before the scatter into p.
	i32, pairLo, order []int32
	f64, out           []float64
	ends               []index.Pair
}

// carveLayout cuts len(nodes) graphs out of arrays drawn from ar: graph u
// spans nodes[u] nodes and pairs[u] candidate pairs. A sharded layout
// ranks each graph over a pair list, which the caller writes into order
// and ends, and graph u over comps[u] components, whose node ranges the
// caller appends to parts; otherwise the one graph spans every candidate
// pair in ID order, and the caller writes their (I, J) order into order.
func carveLayout(ar *arena, nodes, pairs, comps []int32) *graphLayout {
	ng, sharded := len(nodes), comps != nil
	var ni, np, nparts int
	for u := range nodes {
		ni += int(nodes[u]) + 2
		np += int(pairs[u])
		if sharded {
			nparts += int(comps[u]) + 1
		}
	}
	l := &graphLayout{
		graphs: make([]RecordGraph, ng),
		pats:   make([]matrix.Pattern, ng),
		vecs:   make([]matrix.PatVec, ng),
	}
	l.i32 = ar.getI32(ng + 1 + ni + 9*np + nparts)
	cut := func(b *[]int32, n int) []int32 { w := (*b)[:n:n]; *b = (*b)[n:]; return w }
	rest := l.i32
	l.pairLo = cut(&rest, ng+1)
	rowPtr, col, tIdx, slotRow := cut(&rest, ni), cut(&rest, 2*np), cut(&rest, 2*np), cut(&rest, 2*np)
	pairSlot, edges := cut(&rest, np), cut(&rest, np)
	l.order = cut(&rest, np)
	parts := cut(&rest, nparts)
	outLen := 0
	if sharded {
		outLen = np
		l.ends = ar.getPairs(np)
	}
	l.f64 = ar.getF64(2*np + outLen)
	val := l.f64[:2*np]
	l.out = l.f64[2*np:]
	win := func(b []int32, at, n int) []int32 { return b[at : at+n : at+n] }
	nodeLo, lo := 0, 0
	for u := range l.graphs {
		n, m := int(nodes[u]), int(pairs[u])
		rg := &l.graphs[u]
		l.pats[u] = matrix.FromCSR(n, win(rowPtr, nodeLo, n+2)[:n+1], win(col, 2*lo, 2*m)[:0], nil)
		l.vecs[u] = matrix.PatVec{P: &l.pats[u], Val: val[2*lo : 2*lo : 2*(lo+m)]}
		rg.Pattern, rg.S = &l.pats[u], &l.vecs[u]
		rg.tIdx = win(tIdx, 2*lo, 2*m)
		rg.SlotRow = win(slotRow, 2*lo, 2*m)[:0]
		rg.PairSlot = win(pairSlot, lo, m)
		rg.Edges = win(edges, lo, m)[:0]
		if sharded {
			rg.pairs, rg.ends = win(l.order, lo, m), l.ends[lo:lo+m:lo+m]
			rg.parts, parts = parts[:0:comps[u]+1], parts[comps[u]+1:]
		} else {
			rg.lex = win(l.order, lo, m)
		}
		l.pairLo[u] = int32(lo)
		nodeLo += n + 2
		lo += m
	}
	l.pairLo[ng] = int32(lo)
	return l
}

// wholeLayout is the layout of one graph over all of g's candidate pairs
// on numRecords nodes, with PairSlot indexed by pair ID and the pairs'
// (I, J) order computed here.
func wholeLayout(g *index.Graph, numRecords int, ar *arena) *graphLayout {
	m := g.NumPairs()
	l := carveLayout(ar, []int32{int32(numRecords)}, []int32{int32(m)}, nil)
	rg := &l.graphs[0]
	rg.ends = g.Pairs
	tmp, cnt := ar.getI32(m), ar.getI32(numRecords+1)
	lexOrder(g.Pairs, rg.lex, tmp, cnt)
	ar.putI32(tmp)
	ar.putI32(cnt)
	return l
}

// lexOrder writes into out the indexes of pairs in (I, J) order: a stable
// counting sort by J into tmp, then one by I into out. cnt has room for
// every node ID plus one.
func lexOrder(pairs []index.Pair, out, tmp, cnt []int32) {
	for k := range out {
		out[k] = int32(k)
	}
	countSort(pairs, out, tmp, cnt, func(pr index.Pair) int32 { return pr.J })
	countSort(pairs, tmp, out, cnt, func(pr index.Pair) int32 { return pr.I })
}

// countSort writes the pair indexes of src into dst stably ordered by key.
func countSort(pairs []index.Pair, src, dst, cnt []int32, key func(index.Pair) int32) {
	clear(cnt)
	for _, k := range src {
		cnt[key(pairs[k])+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for _, k := range src {
		c := key(pairs[k])
		dst[cnt[c]] = k
		cnt[c]++
	}
}

// outOf is graph u's output window.
func (l *graphLayout) outOf(u int) []float64 { return l.out[l.pairLo[u]:l.pairLo[u+1]] }

// release returns the layout's arrays to ar and the graphs' held plans to
// the plan pool and their budget. The layout must not be used afterwards.
func (l *graphLayout) release(ar *arena) {
	for u := range l.graphs {
		l.graphs[u].releasePlan()
	}
	ar.putI32(l.i32)
	ar.putF64(l.f64)
	ar.putPairs(l.ends)
	*l = graphLayout{}
}

// lay lays the graph out in its windows from the similarities s, keeping
// the pairs with s > 0 as edges, and drops a held plan. A counting pass
// sizes the rows; a fill in (I, J) pair order then appends every row's
// columns in ascending order (row i meets its neighbours j < i, as the J
// of pairs (j, i), before those j > i), so no row is sorted and each
// pair's two slots, and with them the transpose, are known as it is
// placed (TestRecordGraphLayStructure).
func (rg *RecordGraph) lay(s []float64) {
	rg.releasePlan()
	rg.lays++
	pat, n := rg.Pattern, rg.Pattern.N
	// cnt[i+1] counts, then starts and finally ends row i; at the end
	// cnt[:n+1] is RowPtr.
	cnt := pat.RowPtr[:n+2]
	clear(cnt)
	for k := range rg.PairSlot {
		rg.PairSlot[k] = -1
		if s[pairAt(rg.pairs, k)] > 0 {
			e := rg.ends[k]
			cnt[e.I+2]++
			cnt[e.J+2]++
		}
	}
	for i := 2; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	col, tIdx, val := pat.Col[:cap(pat.Col)], rg.tIdx, rg.S.Val[:cap(rg.S.Val)]
	for j := range rg.PairSlot {
		k := j
		if rg.lex != nil {
			k = int(rg.lex[j])
		}
		v := s[pairAt(rg.pairs, k)]
		if v <= 0 {
			continue
		}
		e := rg.ends[k]
		a, b := cnt[e.I+1], cnt[e.J+1]
		cnt[e.I+1]++
		cnt[e.J+1]++
		col[a], col[b] = e.J, e.I
		tIdx[a], tIdx[b] = b, a
		val[a], val[b] = v, v
		rg.PairSlot[k] = a
	}
	nnz := int(cnt[n])
	*pat = matrix.FromCSR(n, cnt[:n+1], col[:nnz], tIdx[:nnz])
	rg.S.Val = val[:nnz]
	slotRow := rg.SlotRow[:nnz]
	//lint:ignore guardloop output-sized fill of the slot→row index; the surrounding fusion round polls between kernels
	for i := 0; i < n; i++ {
		row := slotRow[cnt[i]:cnt[i+1]]
		for k := range row {
			row[k] = int32(i)
		}
	}
	rg.SlotRow = slotRow
	rg.Edges = rg.Edges[:0]
	for k, slot := range rg.PairSlot {
		if slot >= 0 {
			rg.Edges = append(rg.Edges, int32(k))
		}
	}
}

// segments appends to segs, as [lo, hi) pairs, the non-empty slot range
// of each of the graph's components when split is set and the graph has
// parts, and otherwise the graph's whole slot range.
func (rg *RecordGraph) segments(segs []int32, split bool) []int32 {
	rp := rg.Pattern.RowPtr
	if !split || rg.parts == nil {
		return append(segs, 0, rp[len(rp)-1])
	}
	for k := 0; k+1 < len(rg.parts); k++ {
		if lo, hi := rp[rg.parts[k]], rp[rg.parts[k+1]]; lo < hi {
			segs = append(segs, lo, hi)
		}
	}
	return segs
}

// reweight writes the round's similarities s into a graph laid out from an
// earlier round's, which a fusion run holds for the whole run: blocking
// fixes the candidate pairs, so a round changes the edge weights and, only
// where a similarity crosses 0, the edge set. When s keeps exactly the
// graph's edges (s > 0 on the pairs with a slot and on no other), it
// stores each pair's weight in both directed slots, as a fresh lay of s
// would, and reports true. Otherwise it reports false with S torn, and
// the caller lays the graph out again.
func (rg *RecordGraph) reweight(s []float64) bool {
	val, pat := rg.S.Val, rg.Pattern
	for k, slot := range rg.PairSlot {
		v := s[pairAt(rg.pairs, k)]
		if (v > 0) != (slot >= 0) {
			return false
		}
		if slot >= 0 {
			val[slot] = v
			val[pat.TSlot(slot)] = v
		}
	}
	return true
}

// maskPlan returns the mask plan of the power chain over M_t, and whether
// the graph holds it. A graph of a fusion run keeps the plan it builds,
// while the run's budget has room, and reuses it in later rounds. nil
// means the plan would exceed matrix.MaskPlanMaxEntries.
//
// The plan reads M_t only through row liveness, so a plan is held, and
// reused, only while every row with an edge is live: then liveness is
// degree > 0, a property of the pattern that reweight keeps, and the held
// plan is the one BuildMaskPlan would build. On a record graph that holds
// whenever the row pass ran in full: a row's largest weight s/smax is 1,
// so w = 1^α = 1 and M_t's entry 1/rowSum is non-zero (or NaN) unless a
// negative α overflows rowSum. A canceled row pass leaves rows zero.
func (rg *RecordGraph) maskPlan(mt *matrix.PatVec, opts *Options) (plan *matrix.MaskPlan, held bool) {
	live := edgeRowsLive(mt)
	if rg.plan != nil && live {
		return rg.plan, true
	}
	plan = matrix.BuildMaskPlan(mt, opts.Workers, 0)
	if plan == nil || rg.plan != nil || rg.planBudget == nil || !live {
		return plan, false
	}
	n := int64(plan.Entries())
	if rg.planBudget.Add(-n) < 0 {
		rg.planBudget.Add(n)
		return plan, false
	}
	rg.plan = plan
	return plan, true
}

// edgeRowsLive reports whether every row of mt with an edge has a non-zero
// entry.
func edgeRowsLive(mt *matrix.PatVec) bool {
	pat := mt.P
	//lint:ignore guardloop one scan of M_t per rank, stopping at each row's first non-zero entry; the power chain polls the checkpoint per power
	for i := 0; i < pat.N; i++ {
		row := mt.Val[pat.RowPtr[i]:pat.RowPtr[i+1]]
		if len(row) == 0 {
			continue
		}
		live := false
		for _, v := range row {
			if v != 0 {
				live = true
				break
			}
		}
		if !live {
			return false
		}
	}
	return true
}

// releasePlan returns the graph's held plan to the plan pool and the
// run's budget.
func (rg *RecordGraph) releasePlan() {
	if rg.plan != nil {
		rg.planBudget.Add(int64(rg.plan.Entries()))
		rg.plan.Release()
		rg.plan = nil
	}
}

// NumNodes returns the record count (Table III "number of nodes in G_r").
func (rg *RecordGraph) NumNodes() int { return rg.Pattern.N }

// NumEdges returns the undirected edge count (Table III "number of edges").
func (rg *RecordGraph) NumEdges() int { return rg.Pattern.NNZ() / 2 }
