package core

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/parallel"
)

// Component sharding (FusionRun.Partition) splits the rank phase of the
// fusion loop by connected component of the *candidate* graph. Blocking
// fixes the candidate pairs for the whole run, the record graph of every
// round keeps a subset of those edges (similarity > 0), and CliqueRank
// propagates mass only along record-graph edges — so no probability ever
// flows between candidate components, and ranking each component on its own
// local graph is exact, not an approximation. The partition is computed
// once per run.
//
// ITER is not shardable the same way: its convergence test is a global
// Σ|Δx_t| and its damping RNG draws in a fixed global sequence, so a
// per-component ITER would change results. ITER therefore stays global and
// only graph construction + CliqueRank shard.
//
// Determinism: components are ordered by their smallest record ID, local
// node numbering preserves global record order, and each component's
// pairs are laid out in (I, J) order — so every kernel sees exactly the
// rows (in the same order, with the same values) it would see inside the
// global graph, and writes its pairs' p bit-identically to the
// whole-graph run. Large components run one at a time, each on its own
// record graph with the full worker budget. The small ones of a fan-out
// chunk share one block-diagonal record graph (a batch), ranked by one
// kernel call with one worker: rows of different components never meet,
// smax is per row, every chain kernel gives the same bits and the
// saturation stop is exact, so a batch gives each component the bits of
// its own graph. Two-record components take the closed form instead.

// bigShardPairs is the scheduling cut: components with at least this many
// candidate pairs keep the full worker budget (row-level parallelism pays
// off inside them), smaller ones become units of component-level fan-out.
const bigShardPairs = 4096

// Component is one connected component of the candidate graph. Its two
// lists are capacity-capped windows of two arrays shared by the whole
// partition, so appending to one copies it instead of overwriting the
// next component's.
type Component struct {
	// Records lists the component's global record IDs, ascending; a
	// record's position is its local node ID.
	Records []int32
	// Pairs lists the component's global candidate-pair IDs, ascending; a
	// pair's position is its local pair index.
	Pairs []int32
}

// Partition is the component decomposition of a candidate graph plus the
// global→local record renumbering. Record membership is unique, so one
// flat array serves every component at once and the consumers' hot loops
// stay map-free.
type Partition struct {
	Comps []Component
	// RecLocal gives a record's local index within its component (-1 for
	// records in no candidate pair).
	RecLocal []int32
}

// PartitionComponents computes the connected components of the candidate
// graph. Records that appear in no candidate pair are left out — they have
// no pairs to score, so excluding them changes nothing. Components are
// numbered by their smallest record ID and each component's record and
// pair lists keep global order, so the partition is a pure function of the
// candidate graph: the sharded rank step and the delta resolver's
// component keys both depend on that.
func PartitionComponents(g *index.Graph, numRecords int) *Partition {
	uf := graph.NewUnionFind(numRecords)
	inPair := make([]bool, numRecords)
	for _, pr := range g.Pairs {
		uf.Union(int(pr.I), int(pr.J))
		inPair[pr.I] = true
		inPair[pr.J] = true
	}

	// Number components by first appearance in ascending record order.
	compIdx := make([]int32, numRecords)
	compOf := make([]int32, numRecords)
	for i := range compIdx {
		compIdx[i] = -1
	}
	ncomps := 0
	for r := 0; r < numRecords; r++ {
		if !inPair[r] {
			compOf[r] = -1
			continue
		}
		root := uf.Find(r)
		if compIdx[root] < 0 {
			compIdx[root] = int32(ncomps)
			ncomps++
		}
		compOf[r] = compIdx[root]
	}

	// Every component's record and pair lists are windows of two flat
	// arrays laid out in component order, at offsets start and pairStart
	// (pairStart then advances as the pair fill cursor).
	start := make([]int32, ncomps+1)
	for r := 0; r < numRecords; r++ {
		if compOf[r] >= 0 {
			start[compOf[r]+1]++
		}
	}
	pairStart := make([]int32, ncomps+1)
	for _, pr := range g.Pairs {
		pairStart[compOf[pr.I]+1]++
	}
	for ci := 0; ci < ncomps; ci++ {
		start[ci+1] += start[ci]
		pairStart[ci+1] += pairStart[ci]
	}
	part := &Partition{
		Comps:    make([]Component, ncomps),
		RecLocal: make([]int32, numRecords),
	}
	records := make([]int32, start[ncomps])
	pairs := make([]int32, len(g.Pairs))
	for ci := range part.Comps {
		c := &part.Comps[ci]
		c.Records = records[start[ci]:start[ci+1]:start[ci+1]]
		c.Pairs = pairs[pairStart[ci]:pairStart[ci+1]:pairStart[ci+1]]
	}
	// Ascending r per component: a record's local ID (its position in the
	// window) preserves the global order, so local neighbor lists sort
	// identically to the global ones — the heart of the bit-identity
	// argument.
	local := make([]int32, ncomps)
	for r := 0; r < numRecords; r++ {
		ci := compOf[r]
		if ci < 0 {
			part.RecLocal[r] = -1
			continue
		}
		records[start[ci]+local[ci]] = int32(r)
		part.RecLocal[r] = local[ci]
		local[ci]++
	}
	for pid, pr := range g.Pairs {
		ci := compOf[pr.I]
		pairs[pairStart[ci]] = int32(pid)
		pairStart[ci]++
	}
	return part
}

// shardSet is the once-per-run component partition, its schedule and its
// record graphs.
type shardSet struct {
	*Partition
	// big and small split component indexes by bigShardPairs; smallGrain
	// is the precomputed fan-out chunk size over small (a pure function of
	// the partition, so chunk sets are worker-independent).
	big        []int32
	small      []int32
	smallGrain int
	// graphs holds the run's record graphs: one per big component, in big
	// order, then the small chunks' batches, chunk c's being the graphs
	// [chunkGraph[c], chunkGraph[c+1]). kept receives the round's
	// kept-edge count of each big component, then of each chunk.
	graphs     *graphLayout
	chunkGraph []int32
	kept       []int32
}

// newShardSet partitions the candidate graph and schedules its components.
func newShardSet(g *index.Graph, numRecords int) *shardSet {
	ss := &shardSet{Partition: PartitionComponents(g, numRecords)}
	smallPairs := 0
	for ci := range ss.Comps {
		if len(ss.Comps[ci].Pairs) >= bigShardPairs {
			ss.big = append(ss.big, int32(ci))
		} else {
			ss.small = append(ss.small, int32(ci))
			smallPairs += len(ss.Comps[ci].Pairs)
		}
	}
	ss.smallGrain = parallel.GrainFor(len(ss.small), smallPairs+len(ss.small), 4096)
	return ss
}

// chunk returns the small components of fan-out chunk c.
func (ss *shardSet) chunk(c int) []int32 {
	lo := c * ss.smallGrain
	return ss.small[lo:min(lo+ss.smallGrain, len(ss.small))]
}

// batchDenseRecords is where batching stops paying for a small component
// the dense chain would rank (selectChain over its candidate pairs): from
// this many records up it ranks on a graph of its own, because there the
// dense chain beats a batch's mask plan. A complete graph at one worker
// ranked in 12.5 µs dense against 17.7 µs on the plan at 12 records, and
// in 4.2 against 14.9 ms at 100 (2-vCPU Xeon, Go 1.24.0).
const batchDenseRecords = 12

// layGraphs carves the run's record graphs out of arrays drawn from ar.
// Each big component gets a graph of its own. Of a small chunk, the
// components closed reports (by record count) take CliqueRank's closed
// form and get none; the rest share one block-diagonal graph, the chunk's
// batch, except that a dense one of at least batchDenseRecords records
// gets its own, and with alone set every one does. A batch lists its components' pairs component after
// component, each component's in (I, J) order, and numbers their records
// from the component's offset in the batch, so the batch's pairs are in
// (I, J) order too and its rows of different components never meet.
func (ss *shardSet) layGraphs(g *index.Graph, ar *arena, closed func(records int) bool, alone bool) {
	nc, np := len(ss.Comps), g.NumPairs()
	// Each component's graph, its first node there and its offset in the
	// graph's pair order.
	graphOf, base, cursor := ar.getI32(nc), ar.getI32(nc), ar.getI32(nc)
	var nodes, pairs, comps []int32
	newGraph := func() int32 {
		nodes, pairs, comps = append(nodes, 0), append(pairs, 0), append(comps, 0)
		return int32(len(nodes) - 1)
	}
	add := func(ci, u int32) {
		graphOf[ci], base[ci], cursor[ci] = u, nodes[u], pairs[u]
		comps[u]++
		nodes[u] += int32(len(ss.Comps[ci].Records))
		pairs[u] += int32(len(ss.Comps[ci].Pairs))
	}
	for _, ci := range ss.big {
		add(ci, newGraph())
	}
	chunks := (len(ss.small) + ss.smallGrain - 1) / ss.smallGrain
	ss.chunkGraph = make([]int32, chunks+1)
	//lint:ignore guardloop once-per-run passes over the partition's components and records; the rank steps poll the checkpoint per graph
	for c := 0; c < chunks; c++ {
		ss.chunkGraph[c] = int32(len(nodes))
		batch := int32(-1)
		for _, ci := range ss.chunk(c) {
			n, m := len(ss.Comps[ci].Records), len(ss.Comps[ci].Pairs)
			switch {
			case closed(n):
				graphOf[ci] = -1
			case alone || n >= batchDenseRecords && selectChain(n, 2*m) == chainDense:
				add(ci, newGraph())
			default:
				if batch < 0 {
					batch = newGraph()
				}
				add(ci, batch)
			}
		}
	}
	ss.chunkGraph[chunks] = int32(len(nodes))
	ss.kept = make([]int32, len(ss.big)+chunks)
	l := carveLayout(ar, nodes, pairs, comps)
	ss.graphs = l

	for ci, u := range graphOf {
		if u >= 0 {
			l.graphs[u].parts = append(l.graphs[u].parts, base[ci])
		}
	}
	for u := range l.graphs {
		l.graphs[u].parts = append(l.graphs[u].parts, nodes[u])
	}
	// Deal the candidate pairs out in (I, J) order; cnt then maps each
	// record to its component.
	lex, tmp, cnt := ar.getI32(np), ar.getI32(np), ar.getI32(g.NumRecords+1)
	lexOrder(g.Pairs, lex, tmp, cnt)
	for ci := range ss.Comps {
		for _, r := range ss.Comps[ci].Records {
			cnt[r] = int32(ci)
		}
	}
	for _, pid := range lex {
		pr := g.Pairs[pid]
		ci := cnt[pr.I]
		if graphOf[ci] < 0 {
			continue
		}
		at, b := l.pairLo[graphOf[ci]]+cursor[ci], base[ci]
		cursor[ci]++
		l.order[at] = pid
		l.ends[at] = index.Pair{I: b + ss.RecLocal[pr.I], J: b + ss.RecLocal[pr.J]}
	}
	for _, b := range [][]int32{graphOf, base, cursor, lex, tmp, cnt} {
		ar.putI32(b)
	}
}

// Partition computes the component partition once per run, enabling the
// sharded rank step, and lays out the run's record graphs; it returns the
// component count. It is a no-op under UseRSS (RSS's per-edge seeding
// already parallelizes over global pair IDs and needs the global graph's
// Edges list).
func (f *FusionRun) Partition() int {
	if f.opts.UseRSS {
		return 0
	}
	if f.shards == nil {
		ss := newShardSet(f.g, f.numRecords)
		// The DisableMask ablation's chain is dense, n² per graph, so it
		// ranks each component on its own.
		ss.layGraphs(f.g, f.ar, f.twoRecords, f.opts.DisableMask)
		f.shards, f.graphs = ss, ss.graphs
		f.holdPlans()
		f.rankSmall = f.rankChunks
	}
	return len(f.shards.Comps)
}

// rankChunks ranks the small-component chunks that [lo, hi) of the
// schedule covers, with one worker each, on an arena of its own: the
// two-record components by the closed form, the rest through their
// chunk's batch graphs.
func (f *FusionRun) rankChunks(lo, hi int) {
	ss := f.shards
	for c := lo / ss.smallGrain; c*ss.smallGrain < hi; c++ {
		kept := 0
		for _, ci := range ss.chunk(c) {
			if comp := &ss.Comps[ci]; f.twoRecords(len(comp.Records)) {
				kept += f.rankClosed(comp.Pairs)
			}
		}
		if g0, g1 := int(ss.chunkGraph[c]), int(ss.chunkGraph[c+1]); g0 < g1 {
			ar := shardArenas.Get().(*arena)
			for u := g0; u < g1; u++ {
				// One poll per graph bounds post-cancellation work; the
				// torn p slices are discarded with the step's error.
				if f.opts.Check.Err() != nil {
					break
				}
				kept += f.rankGraph(u, ar, 1)
			}
			shardArenas.Put(ar)
		}
		ss.kept[len(ss.big)+c] = int32(kept)
	}
}

// shardArenas recycles per-task arenas for the small-component fan-out.
// The fusion run's own arena is single-goroutine by contract, so each
// fan-out chunk checks one out for exclusive use and returns it when done.
var shardArenas = sync.Pool{New: func() any { return &arena{} }}

// StepShardedRank is StepRank after Partition: it ranks every record
// graph of the run (laid out on the first round, reweighted after) and
// merges their probabilities (disjoint pairs of p), and aggregates the
// node/edge counts into the result. Big components run sequentially with
// the full worker budget; the small ones' chunks fan out with one worker
// each, which cannot change bits because a kernel's result is
// worker-independent. It returns the total kept-edge count and the
// checkpoint's error when the run was canceled. Partition must have run.
func (f *FusionRun) StepShardedRank() (edges int, err error) {
	if err := f.opts.Check.Err(); err != nil {
		return 0, err
	}
	ss := f.shards
	clear(ss.kept)
	for b := range ss.big {
		if f.opts.Check.Err() != nil {
			break
		}
		ss.kept[b] = int32(f.rankGraph(b, f.ar, f.opts.Workers))
	}
	if f.opts.Check.Err() == nil && len(ss.small) > 0 {
		parallel.ForGrain(f.opts.Workers, len(ss.small), ss.smallGrain, f.rankSmall)
	}
	for _, c := range ss.kept {
		edges += int(c)
	}
	f.res.Nodes, f.res.Edges = f.numRecords, edges
	if err := f.endRound(); err != nil {
		return 0, err
	}
	return edges, nil
}
