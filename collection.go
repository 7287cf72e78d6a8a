package er

import (
	"context"

	"repro/internal/engine"
	"repro/internal/index"
)

// CollectionDelta reports what one mutation changed in a collection's
// candidate pair set. Pair endpoints are external record IDs.
type CollectionDelta struct {
	// AddedPairs and RemovedPairs list the candidate pairs the mutation
	// created and destroyed.
	AddedPairs, RemovedPairs [][2]string
	// Touched lists the external IDs whose candidate rows were recomputed.
	Touched []string
	// Rebuilt reports that the mutation's blast radius made an incremental
	// update more expensive than starting over (a frequency threshold
	// crossed on a high-df term), so the pair table was rebuilt instead;
	// the per-pair lists are empty in that case.
	Rebuilt bool
}

// DeltaStats is the work split of one delta-scoped resolve (see
// Collection.ResolveContext): how many candidate-graph components the run
// saw, how many it served from the component cache, and how many it
// actually re-fused.
type DeltaStats struct {
	Components                        int
	ComponentsReused, ComponentsFused int
	PairsReused, PairsFused           int
}

// Collection is a mutable keyed record set that resolves incrementally.
// Upsert and Delete maintain an inverted index and the blocking survivor
// set in time proportional to the mutation's blast radius, and
// ResolveContext re-fuses only the connected components the mutations
// touched, merging every unchanged component's memoized result — the
// streaming counterpart to the batch Resolve.
//
// Resolution semantics are per-component: each connected component of the
// candidate graph runs the full ITER ⇄ CliqueRank loop on its own local
// graph (own seeded RNG, own convergence test, own term weights). The
// result is a pure function of the collection state and options —
// deterministic and independent of mutation order or resolve history — but
// it is not bit-identical to the batch Resolve, whose ITER couples
// components through a global convergence test and RNG sequence.
//
// A Collection is not safe for concurrent use; callers serialize access.
type Collection struct {
	opts     Options
	ix       *index.Index
	entities map[string]string
	cache    *engine.Cache
}

// NewCollection returns an empty collection under the given options
// (validated as in ResolveContext). Candidate generation follows
// Options.CrossSourceOnly, MaxTermRecords, MinSharedTerms and MinJaccard;
// MaxCandidatePairs is ignored — the incremental pair table has no
// degradation path. When Options.Snapshots is set its cache memoizes the
// per-component fusion results (shared across collections); otherwise the
// collection keeps a private cache, so delta-scoped reuse works either way.
func NewCollection(opts Options) (*Collection, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cache := opts.Snapshots.engineCache()
	if cache == nil {
		cache = engine.NewCache(0)
	}
	return &Collection{
		opts: opts,
		ix: index.New(index.Config{
			Corpus: opts.corpusOptions(),
			Block: index.BatchOptions{
				CrossSourceOnly: opts.CrossSourceOnly,
				MaxTermRecords:  opts.MaxTermRecords,
				MinJaccard:      opts.MinJaccard,
				MinSharedTerms:  opts.MinSharedTerms,
				Workers:         opts.Workers,
			},
		}),
		entities: make(map[string]string),
		cache:    cache,
	}, nil
}

// Len returns the number of live records.
func (c *Collection) Len() int { return c.ix.Len() }

// Upsert inserts or replaces the record stored under id and returns what
// the mutation changed in the candidate pair set.
func (c *Collection) Upsert(id string, rec Record) CollectionDelta {
	if rec.Entity != "" {
		c.entities[id] = rec.Entity
	} else {
		delete(c.entities, id)
	}
	return fromIndexDelta(c.ix.Upsert(id, rec.Text, rec.Source))
}

// Delete removes the record stored under id, reporting whether it existed.
func (c *Collection) Delete(id string) (CollectionDelta, bool) {
	d, ok := c.ix.Delete(id)
	if ok {
		delete(c.entities, id)
	}
	return fromIndexDelta(d), ok
}

func fromIndexDelta(d index.Delta) CollectionDelta {
	return CollectionDelta{
		AddedPairs:   d.AddedPairs,
		RemovedPairs: d.RemovedPairs,
		Touched:      d.Touched,
		Rebuilt:      d.Rebuilt,
	}
}

// Resolve is ResolveContext with a background context.
func (c *Collection) Resolve() (*Result, error) {
	return c.ResolveContext(context.Background())
}

// ResolveContext resolves the collection's current state: it materializes
// the corpus and candidate graph from the index (bit-identical to a batch
// build over the live records in ascending external-ID order), partitions
// the candidate graph into connected components, and fuses each component —
// reusing every component whose content key already has a memoized result,
// so a resolve after a small mutation re-fuses only what the mutation
// touched. Record positions in the Result (Matches, Clusters) index
// Result.IDs, the ascending external-ID order of this resolve. Evaluation
// is populated when every record carries an entity label. The Options
// budgets and cancellation behave as in the package-level ResolveContext.
func (c *Collection) ResolveContext(ctx context.Context) (res *Result, err error) {
	defer recoverToError(&err)
	if c.ix.Len() == 0 {
		return nil, ErrNoRecords
	}
	ctx, cancel := c.opts.withWallClock(ctx)
	defer cancel()
	run := engine.NewRun(ctx, engine.RunOptions{Workers: c.opts.Workers})

	var v *index.View
	if err := run.Stage(engine.StageMaterialize, func(st *engine.StageTrace) error {
		v = c.ix.Materialize()
		st.In, st.InUnit = len(v.IDs), "records"
		st.Out, st.OutUnit = v.Graph.NumPairs(), "pairs"
		return nil
	}); err != nil {
		return nil, wrapRunErr(ctx, err)
	}

	out, stats, err := engine.DeltaFuse(run, v.Graph, len(v.IDs), c.opts.coreOptions(), c.cache)
	if err != nil {
		return nil, wrapRunErr(ctx, err)
	}
	clusters, err := engine.Cluster(run, len(v.IDs), v.Graph.Pairs, out.Matches)
	if err != nil {
		return nil, wrapRunErr(ctx, err)
	}
	res = &Result{
		Probabilities:  out.P,
		Clusters:       clusters,
		GraphNodes:     out.Nodes,
		GraphEdges:     out.Edges,
		Converged:      out.Converged,
		NumericRepairs: out.NumericRepairs,
		IDs:            v.IDs,
		Delta: &DeltaStats{
			Components:       stats.Components,
			ComponentsReused: stats.ComponentsReused,
			ComponentsFused:  stats.ComponentsFused,
			PairsReused:      stats.PairsReused,
			PairsFused:       stats.PairsFused,
		},
	}
	for k, matched := range out.Matches {
		if !matched {
			continue
		}
		pr := v.Graph.Pairs[k]
		res.Matches = append(res.Matches, Match{I: int(pr.I), J: int(pr.J), Probability: out.P[k]})
	}
	if truth, ok := c.truthFor(v); ok {
		prf, err := engine.Evaluate(run, v.Graph.Pairs, out.Matches, truth, len(truth))
		if err != nil {
			return nil, wrapRunErr(ctx, err)
		}
		m := fromPRF(prf)
		res.Evaluation = &m
	}
	trace := run.Trace()
	res.Trace = fromEngineTrace(trace)
	if st := trace.Find(engine.StageDeltaFuse); st != nil {
		res.Elapsed = st.Wall
	}
	return res, nil
}

// truthFor derives the ground-truth matching pairs over the materialized
// record order, following the batch convention: every record must be
// labeled, and under CrossSourceOnly only cross-source pairs count.
func (c *Collection) truthFor(v *index.View) (map[uint64]bool, bool) {
	if len(c.entities) != len(v.IDs) {
		return nil, false
	}
	byEntity := make(map[string][]int32)
	for pos, id := range v.IDs {
		label, ok := c.entities[id]
		if !ok {
			return nil, false
		}
		byEntity[label] = append(byEntity[label], int32(pos))
	}
	truth := make(map[uint64]bool)
	for _, recs := range byEntity {
		for a := 0; a < len(recs); a++ {
			for b := a + 1; b < len(recs); b++ {
				i, j := recs[a], recs[b]
				if c.opts.CrossSourceOnly && v.Sources[i] == v.Sources[j] {
					continue
				}
				truth[index.Key(i, j)] = true
			}
		}
	}
	return truth, true
}
