package engine

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/index"
)

// StageDeltaFuse is the component-scoped fusion stage of the delta
// resolver: per connected component of the candidate graph, fuse or reuse.
const StageDeltaFuse = "deltafuse"

// DeltaStats is the work split of one delta-scoped resolve: how many
// candidate-graph components the result holds, how many it reused, and
// how many it actually fused (with their pair counts). The root package
// exports it as er.DeltaStats (Result.Delta).
//
// "Reused" has two sources. In DeltaFuse every component is keyed, and a
// reused component is a component-cache hit. In er.Collection a component
// holding no record touched since the previous resolve is also reused,
// without being keyed; only the touched components are keyed, and they
// count as reused on a cache hit.
type DeltaStats struct {
	// Components is the number of connected components in the candidate
	// graph (components have at least one pair; isolated records are not
	// counted — they have nothing to fuse).
	Components int
	// ComponentsReused and ComponentsFused split Components into reused
	// components and actual fusion runs.
	ComponentsReused, ComponentsFused int
	// PairsReused and PairsFused are the candidate pairs covered by each
	// side of the split.
	PairsReused, PairsFused int
}

// componentTerms collects the distinct global terms touching a component's
// pairs, ascending. seen is an all-false scratch over terms, restored
// before returning.
func componentTerms(g *index.Graph, comp *core.Component, seen []bool) []int32 {
	var terms []int32
	//lint:ignore guardloop bounded by one component's pair-term lists; DeltaFuse polls the checkpoint per component
	for _, pid := range comp.Pairs {
		for _, t := range g.PairTerms[g.PairTermPtr[pid]:g.PairTermPtr[pid+1]] {
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
	}
	for _, t := range terms {
		seen[t] = false
	}
	slices.Sort(terms)
	return terms
}

// LocalizeComponent builds component ci's local candidate graph with
// index.NewGraph: records renumbered densely in global order, terms
// restricted to the component in ascending global order. Both renumberings
// are monotone, so the local pair IDs keep the global pair order. It is
// the graph index.Pending materializes for a touched component.
func LocalizeComponent(g *index.Graph, part *core.Partition, ci int) *index.Graph {
	return localizeComponent(g, part, ci, make([]bool, g.NumTerms))
}

// localizeComponent is LocalizeComponent with the caller's all-false term
// scratch.
func localizeComponent(g *index.Graph, part *core.Partition, ci int, seen []bool) *index.Graph {
	comp := &part.Comps[ci]
	terms := componentTerms(g, comp, seen)
	pairs := make([]index.Pair, len(comp.Pairs))
	lists := make([][]int32, len(comp.Pairs))
	refs := 0
	for _, pid := range comp.Pairs {
		refs += int(g.PairTermPtr[pid+1] - g.PairTermPtr[pid])
	}
	buf := make([]int32, 0, refs)
	//lint:ignore guardloop bounded by one component's pair-term lists; DeltaFuse polls the checkpoint per component
	for k, pid := range comp.Pairs {
		pr := g.Pairs[pid]
		pairs[k] = index.Pair{I: part.RecLocal[pr.I], J: part.RecLocal[pr.J]}
		start := len(buf)
		for _, t := range g.PairTerms[g.PairTermPtr[pid]:g.PairTermPtr[pid+1]] {
			lt, _ := slices.BinarySearch(terms, t)
			buf = append(buf, int32(lt))
		}
		lists[k] = buf[start:len(buf):len(buf)]
	}
	return index.NewGraph(len(comp.Records), len(terms), pairs, lists)
}

// componentKey derives the content key of a component's fusion result from
// its local graph: a hash over the fusion options and the local structure
// — pair endpoints plus each term's pair list, in local term order, with no
// global identities. Fusion reads nothing but this topology (ITER and
// CliqueRank are pure functions of the term–pair and record–record
// structure), so components with equal keys — across mutations,
// collections, even within one corpus — have bit-identical local results.
// The structure bytes are assembled into the caller's reusable scratch and
// hashed in one shot; the raw 32-byte digest serves as the map key
// directly, since the key never leaves the cache.
func componentKey(sig []byte, lg *index.Graph, scratch []byte) (string, []byte) {
	buf := append(scratch[:0], sig...)
	put := func(v int32) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	put(int32(lg.NumRecords))
	put(int32(lg.NumPairs()))
	for _, pr := range lg.Pairs {
		put(pr.I)
		put(pr.J)
	}
	put(int32(lg.NumTerms))
	//lint:ignore guardloop bounded by one component's term-pair lists; callers poll the checkpoint per component
	for _, pairs := range lg.TermPairs {
		put(-1) // term separator
		for _, pid := range pairs {
			put(pid)
		}
	}
	sum := sha256.Sum256(buf)
	return string(sum[:]), buf
}

// fusionOptsSig serializes every core option that influences fusion output.
// Workers, Check, Clock, Progress, Scratch and ShardComponents are
// excluded: output is bit-identical across all of them.
func fusionOptsSig(o core.Options) string {
	return fmt.Sprintf("fuse=%g,%d,%g,%d,%g,%d,%d,%t,%d,%t,%t,%t,%d",
		o.Alpha, o.Steps, o.Eta, o.FusionIterations,
		o.ITERTol, o.ITERMaxIters, int(o.Normalization),
		o.UseRSS, o.RSSWalks,
		o.DisableBonus, o.DisableMask, o.DisableDenominator,
		o.Seed)
}

// ComponentFuser is the one component-fusion entry point: it keys a
// component's local graph, serves the result from the cache under that key
// when present, and fuses the component on a miss, memoizing the result.
// Both the resident collection resolver and DeltaFuse fuse through it.
type ComponentFuser struct {
	opts  core.Options
	sig   []byte
	cache *Cache
	buf   []byte
}

// NewComponentFuser binds a fuser to a run: the run's checkpoint, worker
// budget, scratch arena and clock override the corresponding options.
func NewComponentFuser(r *Run, opts core.Options, cache *Cache) *ComponentFuser {
	opts.Check = r.check
	opts.Workers = r.workers
	opts.Scratch = &r.scratch
	if opts.Clock == nil {
		opts.Clock = r.clk
	}
	// A component is fused whole: sharding inside one component would only
	// re-partition what is already a single component.
	opts.ShardComponents = false
	return &ComponentFuser{opts: opts, sig: []byte(fusionOptsSig(opts)), cache: cache}
}

// Key returns the content key lg's fusion result is memoized under.
func (f *ComponentFuser) Key(lg *index.Graph) string {
	key, _ := componentKey(f.sig, lg, nil)
	return key
}

// Fuse returns the fusion result of one component's local graph and
// whether it had to be fused (a cache miss). The result is shared with the
// cache; callers must not mutate it.
func (f *ComponentFuser) Fuse(lg *index.Graph) (*ComponentResult, bool, error) {
	var key string
	key, f.buf = componentKey(f.sig, lg, f.buf)
	if cr, ok := f.cache.Component(key); ok {
		return cr, false, nil
	}
	lres, err := core.RunFusion(lg, lg.NumRecords, f.opts)
	if err != nil {
		return nil, false, err
	}
	cr := &ComponentResult{
		P:              append([]float64(nil), lres.P...),
		Converged:      lres.Converged,
		NumericRepairs: lres.NumericRepairs,
		Edges:          lres.Edges,
	}
	f.cache.AddComponent(key, cr)
	return cr, true, nil
}

// DeltaFuse is the delta-scoped alternative to Fuse: it partitions the
// candidate graph into connected components and fuses each component's
// local graph through a ComponentFuser, so every component whose content
// key already has a memoized result is served from the cache. It is the
// batch-equivalence oracle of the resident collection resolver, which
// localizes only the components a mutation touched.
//
// The semantics are per-component fusion: each component runs the full
// ITER ⇄ record-graph ⇄ CliqueRank loop on its local graph (own seeded RNG,
// own convergence test, own term weights for the terms it touches). This is
// deterministic and mutation-order independent — the result is a pure
// function of the collection state and options — but it is not the same
// function as the global Fuse, whose ITER couples components through the
// global convergence test and RNG sequence. Callers that need the global
// semantics use Fuse.
//
// The result's P/Matches/Nodes/Edges/Converged/NumericRepairs are
// populated; X, S and the ITER traces are per-component artifacts and stay
// nil.
func DeltaFuse(r *Run, g *index.Graph, numRecords int, opts core.Options, cache *Cache) (*core.FusionResult, DeltaStats, error) {
	var part *core.Partition
	if err := r.Stage(StagePartition, func(st *StageTrace) error {
		part = core.PartitionComponents(g, numRecords)
		st.In, st.InUnit = g.NumPairs(), "pairs"
		st.Out, st.OutUnit = len(part.Comps), "components"
		return nil
	}); err != nil {
		return nil, DeltaStats{}, err
	}

	fuser := NewComponentFuser(r, opts, cache)
	res := &core.FusionResult{
		Converged: true,
		P:         make([]float64, g.NumPairs()),
		Matches:   make([]bool, g.NumPairs()),
		Nodes:     numRecords,
	}
	stats := DeltaStats{Components: len(part.Comps)}
	termSeen := make([]bool, g.NumTerms)
	err := r.Stage(StageDeltaFuse, func(st *StageTrace) error {
		st.In, st.InUnit = len(part.Comps), "components"
		st.OutUnit = "matches"
		for ci := range part.Comps {
			if err := r.check.Err(); err != nil {
				return err
			}
			comp := &part.Comps[ci]
			cr, fused, err := fuser.Fuse(localizeComponent(g, part, ci, termSeen))
			if err != nil {
				return err
			}
			if fused {
				stats.ComponentsFused++
				stats.PairsFused += len(comp.Pairs)
			} else {
				stats.ComponentsReused++
				stats.PairsReused += len(comp.Pairs)
			}
			for k, pid := range comp.Pairs {
				p := cr.P[k]
				res.P[pid] = p
				if p >= opts.Eta {
					res.Matches[pid] = true
					st.Out++
				}
			}
			res.Converged = res.Converged && cr.Converged
			res.NumericRepairs += cr.NumericRepairs
			res.Edges += cr.Edges
		}
		st.ComponentsFused = stats.ComponentsFused
		st.ComponentsReused = stats.ComponentsReused
		st.PairsFused = stats.PairsFused
		st.PairsReused = stats.PairsReused
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return res, stats, nil
}
