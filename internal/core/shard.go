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
// node numbering preserves global record order, and each shard's pairs
// keep global candidate order — so every per-shard kernel sees exactly the
// rows (in the same order, with the same values) it would see inside the
// global graph, and writes its slice of p bit-identically to the whole-graph
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
		Comps:    make([]Component, ncomps),
		RecLocal: make([]int32, numRecords),
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
	// edges receives each component's kept-edge count for the round.
	edges []int32
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
	ss.edges = make([]int32, len(ss.Comps))
	return ss
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
		f.rankSmall = f.rankSmallShards
	}
	return len(f.shards.Comps)
}

// rankSmallShards ranks the small components [lo, hi) of the schedule with
// one worker each, on an arena of its own.
func (f *FusionRun) rankSmallShards(lo, hi int) {
	ss := f.shards
	ar := shardArenas.Get().(*arena)
	for k := lo; k < hi; k++ {
		// One poll per component bounds post-cancellation work; the torn
		// p slices are discarded with the step's error.
		if f.opts.Check.Err() != nil {
			break
		}
		si := ss.small[k]
		c := &ss.Comps[si]
		ss.edges[si] = int32(f.rankGraph(len(c.Records), c.Pairs, ss.RecLocal, ar, 1))
	}
	shardArenas.Put(ar)
}

// StepShardedRank is StepRank after Partition: it rebuilds and ranks every
// component's record graph, merges the per-shard probabilities (disjoint
// slices of p, in deterministic component order), and aggregates the
// node/edge counts into the result. Big components run sequentially with
// the full worker budget; small ones fan out over components with one
// worker each. It returns the total kept-edge count and the checkpoint's
// error when the run was canceled. Partition must have run.
func (f *FusionRun) StepShardedRank() (edges int, err error) {
	if err := f.opts.Check.Err(); err != nil {
		return 0, err
	}
	ss := f.shards
	clear(ss.edges)
	for _, si := range ss.big {
		if f.opts.Check.Err() != nil {
			break
		}
		c := &ss.Comps[si]
		ss.edges[si] = int32(f.rankGraph(len(c.Records), c.Pairs, ss.RecLocal, f.ar, f.opts.Workers))
	}
	if f.opts.Check.Err() == nil && len(ss.small) > 0 {
		parallel.ForGrain(f.opts.Workers, len(ss.small), ss.smallGrain, f.rankSmall)
	}
	for _, c := range ss.edges {
		edges += int(c)
	}
	f.res.Nodes, f.res.Edges = f.numRecords, edges
	if err := f.endRound(); err != nil {
		return 0, err
	}
	return edges, nil
}
