package core

import (
	"sync"

	"repro/internal/graph"
	"repro/internal/index"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// Component sharding (Options.ShardComponents) splits the rank phase of the
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
// node numbering preserves global record order, and each shard's pairs
// keep global candidate order — so every per-shard kernel sees exactly the
// rows (in the same order, with the same values) it would see inside the
// global graph, and writes its slice of p bit-identically to the unsharded
// run. Large components run one at a time with the full worker budget;
// small components fan out across workers with one worker each, which
// cannot change bits because a kernel's result is worker-independent.

// bigShardPairs is the scheduling cut: components with at least this many
// candidate pairs keep the full worker budget (row-level parallelism pays
// off inside them), smaller ones become units of component-level fan-out.
const bigShardPairs = 4096

// Component is one connected component of the candidate graph.
type Component struct {
	// Records lists the component's global record IDs, ascending; a
	// record's position is its local node ID.
	Records []int32
	// Pairs lists the component's global candidate-pair IDs, ascending; a
	// pair's position is its local pair index.
	Pairs []int32
}

// Partition is the component decomposition of a candidate graph plus the
// global→local renumbering arrays. Record and pair membership is unique,
// so one flat array per dimension serves every component at once and the
// consumers' hot loops stay map-free.
type Partition struct {
	Comps []Component
	// RecLocal and PairLocal give a record's / pair's local index within
	// its component (-1 for records in no candidate pair).
	RecLocal  []int32
	PairLocal []int32
	// PairComp gives a pair's component index.
	PairComp []int32
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

	recCount := make([]int32, ncomps)
	pairCount := make([]int32, ncomps)
	for r := 0; r < numRecords; r++ {
		if compOf[r] >= 0 {
			recCount[compOf[r]]++
		}
	}
	for _, pr := range g.Pairs {
		pairCount[compOf[pr.I]]++
	}
	part := &Partition{
		Comps:     make([]Component, ncomps),
		RecLocal:  make([]int32, numRecords),
		PairLocal: make([]int32, g.NumPairs()),
		PairComp:  make([]int32, g.NumPairs()),
	}
	for ci := range part.Comps {
		part.Comps[ci].Records = make([]int32, 0, recCount[ci])
		part.Comps[ci].Pairs = make([]int32, 0, pairCount[ci])
	}
	// Ascending r per component: a record's local ID preserves the global
	// order, so local neighbor lists sort identically to the global ones —
	// the heart of the bit-identity argument.
	for r := 0; r < numRecords; r++ {
		ci := compOf[r]
		if ci < 0 {
			part.RecLocal[r] = -1
			continue
		}
		part.RecLocal[r] = int32(len(part.Comps[ci].Records))
		part.Comps[ci].Records = append(part.Comps[ci].Records, int32(r))
	}
	for pid, pr := range g.Pairs {
		ci := compOf[pr.I]
		part.PairComp[pid] = ci
		part.PairLocal[pid] = int32(len(part.Comps[ci].Pairs))
		part.Comps[ci].Pairs = append(part.Comps[ci].Pairs, int32(pid))
	}
	return part
}

// shardSet is the once-per-run component partition plus its schedule.
type shardSet struct {
	*Partition
	// big and small split component indexes by bigShardPairs; smallGrain
	// is the precomputed fan-out chunk size over small (a pure function of
	// the partition, so chunk sets are worker-independent).
	big        []int32
	small      []int32
	smallGrain int
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

// buildShardGraph is buildRecordGraph restricted to one component: nodes
// are renumbered through recLocal, and PairSlot/Edges are indexed by the
// shard-local pair position rather than the global pair ID.
func buildShardGraph(g *index.Graph, sh *Component, recLocal []int32, s []float64, ar *arena) *RecordGraph {
	edges := ar.getEdges(len(sh.Pairs))
	kept := ar.getI32(len(sh.Pairs))[:0]
	for k, pid := range sh.Pairs {
		if s[pid] <= 0 {
			continue
		}
		pr := g.Pairs[pid]
		edges = append(edges, matrix.Edge{I: recLocal[pr.I], J: recLocal[pr.J]})
		kept = append(kept, int32(k))
	}
	pat := matrix.NewPattern(len(sh.Records), edges)
	ar.putEdges(edges)
	sv := &matrix.PatVec{P: pat, Val: ar.getF64(pat.NNZ())}
	slot := ar.getI32(len(sh.Pairs))
	for i := range slot {
		slot[i] = -1
	}
	for _, k := range kept {
		pid := sh.Pairs[k]
		pr := g.Pairs[pid]
		a := pat.Slot(int(recLocal[pr.I]), int(recLocal[pr.J]))
		b := pat.Slot(int(recLocal[pr.J]), int(recLocal[pr.I]))
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

// shardArenas recycles per-task arenas for the small-component fan-out.
// The fusion run's own arena is single-goroutine by contract, so each
// fan-out chunk checks one out for exclusive use and returns it when done.
var shardArenas = sync.Pool{New: func() any { return &arena{} }}

// Partition computes the component partition once per run, enabling the
// sharded rank step; it returns the component count. It is a no-op under
// UseRSS (RSS's per-edge seeding already parallelizes over global pair IDs
// and needs the global graph's Edges list).
func (f *FusionRun) Partition() int {
	if f.opts.UseRSS {
		return 0
	}
	if f.shards == nil {
		f.shards = newShardSet(f.g, f.numRecords)
	}
	return len(f.shards.Comps)
}

// Sharded reports whether Partition has prepared a component partition —
// when true, drive rounds with StepITER + StepShardedRank instead of
// StepITER + StepGraph + StepRank.
func (f *FusionRun) Sharded() bool { return f.shards != nil }

// rankShard scores one component: build its local record graph from the
// round's similarities, run CliqueRank on it with the given worker budget,
// and scatter the probabilities into the global p. Components whose pairs
// all have similarity 0 write zeros directly — exactly what the global
// graph's dropped-edge path produces. Returns the kept-edge count.
func (f *FusionRun) rankShard(sh *Component, ar *arena, workers int) int {
	s := f.res.S
	kept := 0
	for _, pid := range sh.Pairs {
		if s[pid] > 0 {
			kept++
		}
	}
	if kept == 0 {
		for _, pid := range sh.Pairs {
			f.p[pid] = 0
		}
		return 0
	}
	rg := buildShardGraph(f.g, sh, f.shards.RecLocal, s, ar)
	opts := f.opts
	opts.Workers = workers
	pl := ar.getF64(len(sh.Pairs))
	CliqueRankInto(rg, opts, pl)
	for k, pid := range sh.Pairs {
		f.p[pid] = pl[k]
	}
	ar.putF64(pl)
	rg.release()
	return kept
}

// StepShardedRank is the sharded replacement for StepGraph + StepRank: it
// rebuilds and ranks every component's record graph, merges the per-shard
// probabilities (disjoint slices of p, in deterministic component order),
// and aggregates the node/edge counts into the result. Big components run
// sequentially with the full worker budget; small ones fan out over
// components with one worker each. It returns the total kept-edge count
// and the checkpoint's error when the run was canceled.
func (f *FusionRun) StepShardedRank() (edges int, err error) {
	if err := f.opts.Check.Err(); err != nil {
		return 0, err
	}
	ss := f.shards
	res := f.res
	if res.Graph != nil {
		// A caller may have mixed unsharded rounds in; the global graph is
		// stale the moment similarities change.
		res.Graph.release()
		res.Graph = nil
	}
	counts := f.ar.getI32(len(ss.Comps))
	for i := range counts {
		counts[i] = 0
	}
	for _, si := range ss.big {
		if f.opts.Check.Err() != nil {
			break
		}
		counts[si] = int32(f.rankShard(&ss.Comps[si], f.ar, f.opts.Workers))
	}
	if f.opts.Check.Err() == nil && len(ss.small) > 0 {
		parallel.ForGrain(f.opts.Workers, len(ss.small), ss.smallGrain, func(lo, hi int) {
			ar := shardArenas.Get().(*arena)
			for k := lo; k < hi; k++ {
				// One poll per component bounds post-cancellation work; the
				// torn p slices are discarded with the error below.
				if f.opts.Check.Err() != nil {
					break
				}
				si := ss.small[k]
				counts[si] = int32(f.rankShard(&ss.Comps[si], ar, 1))
			}
			shardArenas.Put(ar)
		})
	}
	if err := f.opts.Check.Err(); err != nil {
		f.ar.putI32(counts)
		return 0, err
	}
	for _, c := range counts {
		edges += int(c)
	}
	f.ar.putI32(counts)
	res.Nodes, res.Edges = f.numRecords, edges
	res.NumericRepairs += sanitizeProbabilities(f.p)
	if f.opts.Progress != nil {
		f.opts.Progress(f.round, res.S, f.p, f.now().Sub(f.start))
	}
	return edges, nil
}
