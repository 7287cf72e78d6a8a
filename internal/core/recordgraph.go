package core

import (
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
	// pairID maps position k to its global pair ID, ends a pair to its
	// endpoint nodes.
	pairID := func(k int) int {
		if pairs != nil {
			return int(pairs[k])
		}
		return k
	}
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
		pid := pairID(k)
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
		pid := pairID(int(k))
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

// release returns the graph's recyclable buffers to its arena ahead of the
// next fusion round. The graph must not be used afterwards; calling release
// on an arena-less graph is a no-op.
func (rg *RecordGraph) release() {
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
