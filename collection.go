package er

import (
	"context"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/index"
)

// CollectionDelta reports what one mutation changed in a collection's
// candidate pair set: the pairs created and destroyed (endpoints are
// external record IDs), the IDs whose candidate rows were recomputed, and
// whether the pair table was rebuilt instead of patched.
type CollectionDelta = index.Delta

// DeltaStats is the work split of one delta-scoped resolve (see
// Collection.ResolveContext): how many candidate-graph components the
// result holds, how many of them it fused and how many it reused. A
// component holding no record touched since the previous resolve is
// reused without being looked at; a touched component is keyed and counts
// as reused when its key hits the component cache.
type DeltaStats = engine.DeltaStats

// Collection is a mutable keyed record set that resolves incrementally.
// Upsert and Delete maintain an inverted index and the blocking survivor
// set in time proportional to the mutation's blast radius. The collection
// keeps the outcome of its last successful resolve resident: every pair's
// probability, every component's fusion aggregates, every component's
// matched groups in cluster order, and per-label record counts.
// ResolveContext therefore touches only the connected components that hold
// a record some mutation touched since: it keys each such component, fuses
// it on a cache miss, regroups its matches, and leaves every other
// component as it was. This is the streaming counterpart to the batch
// Resolve.
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
	opts  Options
	ix    *index.Index
	cache *engine.Cache
	truth truthCounts

	// Resident outcome of the last successful resolve: probabilities in
	// the index's committed pair order, per-slot component aggregates and
	// their running sums, and the cluster layout.
	p                                        []float64
	slots                                    []slotResult
	edges, repairs, unconverged, matches, tp int
	layout                                   cluster.Layout

	// matched is scratch: one touched component's match flags.
	matched []bool
	// labelled counts the matches whose ground truth a resolve looked up.
	labelled int64
}

// slotResult is the resident fusion aggregate of one committed component:
// tp counts its matches whose records share a ground-truth label. A label
// changes only through Upsert, which touches the record, so a component
// no mutation touched keeps its count.
type slotResult struct {
	edges, repairs, matches, tp int32
	converged                   bool
}

// NewCollection returns an empty collection under the given options
// (validated as in ResolveContext). Candidate generation follows
// Options.CrossSourceOnly, MaxTermRecords, MinSharedTerms and MinJaccard;
// MaxCandidatePairs is ignored — the incremental pair table has no
// degradation path. When Options.Snapshots is set its cache memoizes the
// per-component fusion results (shared across collections); otherwise the
// collection keeps a private cache. Either way the cache's component hit
// and miss counters count only the touched components a resolve keys.
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
		cache: cache,
		truth: truthCounts{cross: opts.CrossSourceOnly, labelIDs: make(map[string]int32)},
	}, nil
}

// Len returns the number of live records.
func (c *Collection) Len() int { return c.ix.Len() }

// Upsert inserts or replaces the record stored under id and returns what
// the mutation changed in the candidate pair set.
func (c *Collection) Upsert(id string, rec Record) CollectionDelta {
	if rid, ok := c.ix.Handle(id); ok {
		c.truth.remove(rid)
	}
	d := c.ix.Upsert(id, rec.Text, rec.Source)
	rid, _ := c.ix.Handle(id)
	c.truth.add(rid, rec.Entity, rec.Source)
	return d
}

// Delete removes the record stored under id, reporting whether it existed.
func (c *Collection) Delete(id string) (CollectionDelta, bool) {
	if rid, ok := c.ix.Handle(id); ok {
		c.truth.remove(rid)
	}
	return c.ix.Delete(id)
}

// Resolve is ResolveContext with a background context.
func (c *Collection) Resolve() (*Result, error) {
	return c.ResolveContext(context.Background())
}

// ResolveContext resolves the collection's current state. The index
// expands the records touched since the last successful resolve to the
// connected components that now hold them (partition), builds those
// components' local candidate graphs and places their pairs in the global
// pair order (materialize), and each touched component is keyed and served
// from the component cache or fused (deltafuse). Only the touched
// components' matches are regrouped into clusters, which merge into the
// resident cluster order (cluster). Untouched components keep their
// resident results. The Result is bit-identical to materializing the whole
// index, fusing every component and clustering with cluster.FromMatches,
// and its slices are fresh and belong to the caller. Record positions
// (Matches, Clusters) index Result.IDs, the ascending external-ID order of
// this resolve, and pair positions follow the batch candidate graph's
// numbering. Evaluation
// is populated when every record carries an entity label. The Options
// budgets and cancellation behave as in the package-level ResolveContext;
// a resolve that fails or is canceled leaves the resident state as it was,
// so the next resolve still sees every touched record.
func (c *Collection) ResolveContext(ctx context.Context) (res *Result, err error) {
	defer recoverToError(&err)
	if c.ix.Len() == 0 {
		return nil, ErrNoRecords
	}
	ctx, cancel := c.opts.withWallClock(ctx)
	defer cancel()
	run := engine.NewRun(ctx, engine.RunOptions{Workers: c.opts.Workers})

	var pd *index.Pending
	if err := run.Stage(engine.StagePartition, func(st *engine.StageTrace) error {
		pd = c.ix.Pending()
		st.In, st.InUnit = pd.Touched, "records"
		st.Out, st.OutUnit = len(pd.Comps), "components"
		return nil
	}); err != nil {
		return nil, wrapRunErr(ctx, err)
	}
	if err := run.Stage(engine.StageMaterialize, func(st *engine.StageTrace) error {
		pd.Materialize()
		st.In, st.InUnit = len(pd.Comps), "components"
		st.Out, st.OutUnit = pd.NumPairs, "pairs"
		return nil
	}); err != nil {
		return nil, wrapRunErr(ctx, err)
	}

	copts := c.opts.coreOptions()
	results := make([]*engine.ComponentResult, len(pd.Comps))
	fused := make([]slotResult, len(pd.Comps))
	p := make([]float64, pd.NumPairs)
	var matches []Match
	stats := DeltaStats{Components: pd.Components}
	edges, repairs, unconverged, nMatched, tp := c.edges, c.repairs, c.unconverged, c.matches, c.tp
	if err := run.Stage(engine.StageDeltaFuse, func(st *engine.StageTrace) error {
		st.In, st.InUnit = len(pd.Comps), "components"
		st.OutUnit = "matches"
		fuser := engine.NewComponentFuser(run, copts, c.cache)
		var fresh []float64
		for ci := range pd.Comps {
			if err := run.Check().Err(); err != nil {
				return err
			}
			cr, miss, err := fuser.Fuse(pd.Comps[ci].Graph)
			if err != nil {
				return err
			}
			results[ci] = cr
			fresh = append(fresh, cr.P...)
			if miss {
				stats.ComponentsFused++
				stats.PairsFused += len(cr.P)
			}
		}
		for _, s := range pd.Dissolved {
			r := c.slots[s]
			edges -= int(r.edges)
			repairs -= int(r.repairs)
			nMatched -= int(r.matches)
			tp -= int(r.tp)
			if !r.converged {
				unconverged--
			}
		}
		for ci, cr := range results {
			matches, ctp := c.countMatched(&pd.Comps[ci], pd.Handles, cr.P, copts.Eta)
			fused[ci] = slotResult{
				edges:     int32(cr.Edges),
				repairs:   int32(cr.NumericRepairs),
				matches:   int32(matches),
				tp:        int32(ctp),
				converged: cr.Converged,
			}
			edges += cr.Edges
			repairs += cr.NumericRepairs
			nMatched += matches
			tp += ctp
			if !cr.Converged {
				unconverged++
			}
		}
		if nMatched > 0 {
			matches = make([]Match, 0, nMatched)
		}
		k := 0
		pd.Each(func(pr index.Pair, from int32) {
			v := c.residentP(from, fresh)
			p[k] = v
			k++
			if v >= copts.Eta {
				matches = append(matches, Match{I: int(pr.I), J: int(pr.J), Probability: v})
			}
		})
		stats.ComponentsReused = stats.Components - stats.ComponentsFused
		stats.PairsReused = len(p) - stats.PairsFused
		st.Out = nMatched
		st.ComponentsFused, st.ComponentsReused = stats.ComponentsFused, stats.ComponentsReused
		st.PairsFused, st.PairsReused = stats.PairsFused, stats.PairsReused
		return nil
	}); err != nil {
		return nil, wrapRunErr(ctx, err)
	}

	// Regroup only the touched components; every other group stays where
	// the resident layout holds it.
	var clusters [][]int
	if err := run.Stage(engine.StageCluster, func(st *engine.StageTrace) error {
		c.layout.Begin(pd.Dissolved)
		c.layout.Moved(pd.Shift)
		regrouped := 0
		for ci, comp := range pd.Comps {
			cp := results[ci].P
			c.matched = index.Grow(c.matched, len(cp))
			for k, v := range cp {
				c.matched[k] = v >= copts.Eta
			}
			c.layout.Group(comp.Slot, comp.Records, pd.Handles, comp.Graph.Pairs, c.matched)
			regrouped += len(comp.Records)
		}
		clusters = c.layout.Clusters(pd.Pos, len(pd.IDs))
		st.In, st.InUnit = regrouped, "records"
		st.Out, st.OutUnit = len(clusters), "clusters"
		return nil
	}); err != nil {
		return nil, wrapRunErr(ctx, err)
	}
	res = &Result{
		Probabilities:  p,
		Clusters:       clusters,
		GraphNodes:     len(pd.IDs),
		GraphEdges:     edges,
		Converged:      unconverged == 0,
		NumericRepairs: repairs,
		IDs:            pd.IDs,
		Matches:        matches,
		Delta:          &stats,
	}
	if c.truth.unlabeled == 0 {
		if err := run.Stage(engine.StageEvaluate, func(st *engine.StageTrace) error {
			m := eval.FromCounts(tp, nMatched-tp, c.truth.pairs)
			res.Evaluation = &m
			st.In, st.InUnit = len(p), "pairs"
			st.Out, st.OutUnit = nMatched, "matches"
			return nil
		}); err != nil {
			return nil, wrapRunErr(ctx, err)
		}
	}
	res.Trace = run.Trace()
	if st := res.Trace.Find(engine.StageDeltaFuse); st != nil {
		res.Elapsed = st.Wall
	}

	// Success: adopt this resolve as the resident state.
	if c.ix.Commit(pd) {
		c.p = index.GrowSlack(c.p, len(p))
		copy(c.p, p)
		if n := pd.Slots; n > len(c.slots) {
			c.slots = append(c.slots, make([]slotResult, n-len(c.slots))...)
		}
		for ci, r := range fused {
			c.slots[pd.Comps[ci].Slot] = r
		}
		c.edges, c.repairs, c.unconverged, c.matches, c.tp = edges, repairs, unconverged, nMatched, tp
		c.layout.Commit()
	}
	return res, nil
}

// countMatched counts one touched component's matches, the pairs whose
// probability in p reaches the threshold, and the true positives among
// them by the labels the records carry now. handles maps position to
// record handle.
func (c *Collection) countMatched(comp *index.PendingComponent, handles []int32, p []float64, eta float64) (matches, tp int) {
	recs := comp.Records
	for k, pr := range comp.Graph.Pairs {
		if p[k] >= eta {
			matches++
			if c.truth.match(handles[recs[pr.I]], handles[recs[pr.J]]) {
				tp++
			}
		}
	}
	c.labelled += int64(matches)
	return matches, tp
}

// residentP returns the probability a pair takes from its index.Pending
// origin: the resident array for an untouched component's pair, the
// touched components' fresh results otherwise.
func (c *Collection) residentP(from int32, fresh []float64) float64 {
	if from >= 0 {
		return c.p[from]
	}
	return fresh[^from]
}

// truthCounts is the collection's resident ground truth: each record's
// entity label (and, under CrossSourceOnly, source) by index handle, and
// the running number of ground-truth matching pairs — Σ C(n_label, 2),
// less Σ C(n_label,source, 2) under CrossSourceOnly, the batch convention
// of counting only cross-source pairs there.
type truthCounts struct {
	cross     bool
	labelIDs  map[string]int32
	perLabel  []int32
	perSource map[[2]int32]int32
	label     []int32 // handle -> label ID, -1 when unlabeled or free
	source    []int32 // handle -> source (CrossSourceOnly only)
	unlabeled int     // live records without a label
	pairs     int
}

// add records the label of the live record at handle rid.
func (t *truthCounts) add(rid int32, entity string, source int) {
	for int(rid) >= len(t.label) {
		t.label = append(t.label, -1)
		if t.cross {
			t.source = append(t.source, 0)
		}
	}
	if entity == "" {
		t.label[rid] = -1
		t.unlabeled++
		return
	}
	id, ok := t.labelIDs[entity]
	if !ok {
		id = int32(len(t.perLabel))
		t.labelIDs[entity] = id
		t.perLabel = append(t.perLabel, 0)
	}
	t.label[rid] = id
	t.pairs += int(t.perLabel[id])
	t.perLabel[id]++
	if t.cross {
		if t.perSource == nil {
			t.perSource = make(map[[2]int32]int32)
		}
		// Sources are int32 in the index too.
		src := int32(source)
		t.source[rid] = src
		k := [2]int32{id, src}
		t.pairs -= int(t.perSource[k])
		t.perSource[k]++
	}
}

// remove forgets the label of the live record at handle rid.
func (t *truthCounts) remove(rid int32) {
	id := t.label[rid]
	if id < 0 {
		t.unlabeled--
		return
	}
	t.label[rid] = -1
	t.perLabel[id]--
	t.pairs -= int(t.perLabel[id])
	if t.cross {
		k := [2]int32{id, t.source[rid]}
		t.perSource[k]--
		t.pairs += int(t.perSource[k])
		if t.perSource[k] == 0 {
			delete(t.perSource, k)
		}
	}
}

// match reports whether two labeled records of a candidate pair form a
// ground-truth pair. Under CrossSourceOnly every candidate pair is already
// cross-source, so equal labels decide.
func (t *truthCounts) match(a, b int32) bool {
	return t.label[a] == t.label[b]
}
