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
	// PairSlot maps a candidate pair ID to the slot of its (I → J) entry,
	// or -1 when the pair's similarity was 0 and the edge was dropped.
	PairSlot []int32
	// Edges lists the pair IDs that became edges, aligned with graph order.
	Edges []int32
	// SlotRow maps every directed slot to its row index, so the CliqueRank
	// and RSS readouts recover slot coordinates in O(1) instead of a binary
	// search over RowPtr per pair.
	SlotRow []int32

	// arena, when non-nil, recycles this graph's buffers (and CliqueRank's
	// scratch) across fusion rounds; see release.
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
	return buildRecordGraph(g, s, numRecords, nil, nil, nil)
}

// buildRecordGraph builds G_r over numRecords nodes from the candidate
// pairs listed in pairs, or from every candidate pair when pairs is nil.
// recLocal, when non-nil, renumbers record IDs into the graph's nodes (a
// component's local numbering). PairSlot is indexed by, and Edges lists, a
// pair's position in pairs, which for the whole graph is its global ID.
func buildRecordGraph(g *index.Graph, s []float64, numRecords int, pairs, recLocal []int32, ar *arena) *RecordGraph {
	n := g.NumPairs()
	if pairs != nil {
		n = len(pairs)
	}
	// ends maps a pair to its endpoint nodes.
	ends := func(pid int) (i, j int32) {
		i, j = g.Pairs[pid].I, g.Pairs[pid].J
		if recLocal != nil {
			i, j = recLocal[i], recLocal[j]
		}
		return i, j
	}
	edges := ar.getEdges(n)
	kept := ar.getI32(n)[:0]
	for k := 0; k < n; k++ {
		pid := pairAt(pairs, k)
		if s[pid] <= 0 {
			continue
		}
		i, j := ends(pid)
		edges = append(edges, matrix.Edge{I: i, J: j})
		kept = append(kept, int32(k))
	}
	pat := matrix.NewPattern(numRecords, edges)
	ar.putEdges(edges)
	sv := &matrix.PatVec{P: pat, Val: ar.getF64(pat.NNZ())}
	slot := ar.getI32(n)
	for k := range slot {
		slot[k] = -1
	}
	for _, k := range kept {
		pid := pairAt(pairs, int(k))
		i, j := ends(pid)
		a := pat.Slot(int(i), int(j))
		b := pat.Slot(int(j), int(i))
		sv.Val[a] = s[pid]
		sv.Val[b] = s[pid]
		slot[k] = int32(a)
	}
	slotRow := ar.getI32(pat.NNZ())
	//lint:ignore guardloop output-sized fill of the slot→row index; the surrounding fusion round polls between kernels
	for i := 0; i < pat.N; i++ {
		row := slotRow[pat.RowPtr[i]:pat.RowPtr[i+1]]
		for k := range row {
			row[k] = int32(i)
		}
	}
	return &RecordGraph{Pattern: pat, S: sv, PairSlot: slot, Edges: kept, SlotRow: slotRow, arena: ar}
}

// reweight writes the round's similarities s into a graph built from an
// earlier round's, which a fusion run holds for the whole run: blocking
// fixes the candidate pairs, so a round changes the edge weights and, only
// where a similarity crosses 0, the edge set. When s keeps exactly the
// graph's edges (s > 0 on the pairs with a slot and on no other), it
// stores each pair's weight in both directed slots, as a fresh build from
// s would, and reports true. Otherwise it reports false with S torn, and
// the caller rebuilds. pairs is the list the graph was built from.
func (rg *RecordGraph) reweight(s []float64, pairs []int32) bool {
	val, pat := rg.S.Val, rg.Pattern
	for k, slot := range rg.PairSlot {
		v := s[pairAt(pairs, k)]
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

// release returns the graph's recyclable buffers to its arena ahead of the
// next fusion round, and its held plan to the plan pool and the run's
// budget. The graph must not be used afterwards; on an arena-less graph
// only the plan is released.
func (rg *RecordGraph) release() {
	if rg.plan != nil {
		rg.planBudget.Add(int64(rg.plan.Entries()))
		rg.plan.Release()
		rg.plan = nil
	}
	ar := rg.arena
	if ar == nil {
		return
	}
	ar.putF64(rg.S.Val)
	ar.putI32(rg.PairSlot)
	ar.putI32(rg.Edges)
	ar.putI32(rg.SlotRow)
	rg.S, rg.PairSlot, rg.Edges, rg.SlotRow, rg.arena = nil, nil, nil, nil, nil
}

// NumNodes returns the record count (Table III "number of nodes in G_r").
func (rg *RecordGraph) NumNodes() int { return rg.Pattern.N }

// NumEdges returns the undirected edge count (Table III "number of edges").
func (rg *RecordGraph) NumEdges() int { return rg.Pattern.NNZ() / 2 }
