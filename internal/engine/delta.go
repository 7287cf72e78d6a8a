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
// candidate-graph components the run saw, how many it served from the
// component cache, and how many it actually fused (with their pair counts).
type DeltaStats struct {
	// Components is the number of connected components in the candidate
	// graph (components have at least one pair; isolated records are not
	// counted — they have nothing to fuse).
	Components int
	// ComponentsReused and ComponentsFused split Components into cache hits
	// and actual fusion runs.
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

// componentKey derives the content key of one component's fusion result: a
// hash over the fusion options and the component's localized structure —
// local pair endpoints plus each touching term's local pair list, in
// ascending global term order but without global term identities. Fusion
// reads nothing but this topology (ITER and CliqueRank are pure functions
// of the term–pair and record–record structure), so components with equal
// keys — across mutations, collections, even within one corpus — have
// bit-identical local results.
// The structure bytes are assembled into the caller's reusable scratch and
// hashed in one shot: a digest allocation plus a 4-byte h.Write per int32
// is measurable when a warm 100k resolve keys ~20k components. The raw
// 32-byte digest serves as the map key directly — the key never leaves the
// cache, so it needs no printable encoding.
func componentKey(sig []byte, g *index.Graph, part *core.Partition, ci int, terms []int32, scratch []byte) (string, []byte) {
	comp := &part.Comps[ci]
	buf := append(scratch[:0], sig...)
	put := func(v int32) {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
	}
	put(int32(len(comp.Records)))
	put(int32(len(comp.Pairs)))
	for _, pid := range comp.Pairs {
		pr := g.Pairs[pid]
		put(part.RecLocal[pr.I])
		put(part.RecLocal[pr.J])
	}
	put(int32(len(terms)))
	//lint:ignore guardloop bounded by one component's term-pair lists; DeltaFuse polls the checkpoint per component
	for _, t := range terms {
		put(-1) // term separator
		for _, pid := range g.TermPairs[t] {
			if part.PairComp[pid] == int32(ci) {
				put(part.PairLocal[pid])
			}
		}
	}
	sum := sha256.Sum256(buf)
	return string(sum[:]), buf
}

// localizeComponent builds the component's local candidate graph: records
// and pairs renumbered densely (preserving global order, so local key order
// matches global key order), terms restricted to the component in ascending
// global order. Only cache misses pay for this — hits are keyed without
// materializing the graph.
func localizeComponent(g *index.Graph, part *core.Partition, ci int, terms []int32) *index.Graph {
	comp := &part.Comps[ci]
	lg := &index.Graph{
		NumRecords: len(comp.Records),
		NumTerms:   len(terms),
		Pairs:      make([]index.Pair, len(comp.Pairs)),
		Index:      make(map[uint64]int32, len(comp.Pairs)),
		TermPairs:  make([][]int32, len(terms)),
	}
	for k, pid := range comp.Pairs {
		pr := g.Pairs[pid]
		li, lj := part.RecLocal[pr.I], part.RecLocal[pr.J]
		lg.Pairs[k] = index.Pair{I: li, J: lj}
		lg.Index[index.Key(li, lj)] = int32(k)
	}
	//lint:ignore guardloop bounded by one component's term-pair lists; DeltaFuse polls the checkpoint per component
	for lt, t := range terms {
		for _, pid := range g.TermPairs[t] {
			if part.PairComp[pid] == int32(ci) {
				lg.TermPairs[lt] = append(lg.TermPairs[lt], part.PairLocal[pid])
			}
		}
	}
	lg.BuildPairIndex()
	return lg
}

// fusionOptsSig serializes every core option that influences fusion output
// — the same field set FusionKey hashes. Workers, Check, Clock, Progress,
// Scratch and ShardComponents are excluded: output is bit-identical across
// all of them.
func fusionOptsSig(o core.Options) string {
	return fmt.Sprintf("fuse=%g,%d,%g,%d,%g,%d,%d,%t,%d,%t,%t,%t,%d",
		o.Alpha, o.Steps, o.Eta, o.FusionIterations,
		o.ITERTol, o.ITERMaxIters, int(o.Normalization),
		o.UseRSS, o.RSSWalks,
		o.DisableBonus, o.DisableMask, o.DisableDenominator,
		o.Seed)
}

// DeltaFuse is the delta-scoped alternative to Fuse: it partitions the
// candidate graph into connected components, fuses each component on its
// own localized graph, and memoizes the per-component results in the cache
// under content keys — so a resolve after a small mutation re-fuses only
// the components the mutation touched and serves every other component from
// cache.
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
	opts.Check = r.check
	opts.Workers = r.workers
	opts.Scratch = &r.scratch
	if opts.Clock == nil {
		opts.Clock = r.clk
	}
	// A component is fused whole: sharding inside one component would only
	// re-partition what is already a single component.
	opts.ShardComponents = false

	var part *core.Partition
	if err := r.Stage(StagePartition, func(st *StageTrace) error {
		part = core.PartitionComponents(g, numRecords)
		st.In, st.InUnit = g.NumPairs(), "pairs"
		st.Out, st.OutUnit = len(part.Comps), "components"
		return nil
	}); err != nil {
		return nil, DeltaStats{}, err
	}

	sig := []byte(fusionOptsSig(opts))
	res := &core.FusionResult{
		Converged: true,
		P:         make([]float64, g.NumPairs()),
		Matches:   make([]bool, g.NumPairs()),
		Nodes:     numRecords,
	}
	stats := DeltaStats{Components: len(part.Comps)}
	termSeen := make([]bool, g.NumTerms)
	var keyScratch []byte
	err := r.Stage(StageDeltaFuse, func(st *StageTrace) error {
		st.In, st.InUnit = len(part.Comps), "components"
		st.OutUnit = "matches"
		for ci := range part.Comps {
			if err := r.check.Err(); err != nil {
				return err
			}
			comp := &part.Comps[ci]
			terms := componentTerms(g, comp, termSeen)
			var key string
			key, keyScratch = componentKey(sig, g, part, ci, terms, keyScratch)
			cr, ok := cache.Component(key)
			if !ok {
				lg := localizeComponent(g, part, ci, terms)
				f := core.NewFusionRun(lg, len(comp.Records), opts)
				for f.Next() {
					if _, err := f.StepITER(); err != nil {
						return err
					}
					f.StepGraph()
					if err := f.StepRank(); err != nil {
						return err
					}
				}
				lres := f.Finish()
				cr = &ComponentResult{
					P:              append([]float64(nil), lres.P...),
					Converged:      lres.Converged,
					NumericRepairs: lres.NumericRepairs,
					Edges:          lres.Edges,
				}
				cache.AddComponent(key, cr)
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
