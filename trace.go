package er

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/engine"
)

// StageTrace records one pipeline stage execution: wall time under the
// run's clock, input/output sizes, and — for the per-round fusion phases
// — round and inner-iteration counts aggregated across rounds. It is the
// public form of the staged execution engine's trace entry.
type StageTrace struct {
	// Stage names the stage: "tokenize", "block", "iter", "recordgraph",
	// "cliquerank" (or "rss"), "fuse", "cluster", "evaluate".
	Stage string
	// Cached reports that the stage's output was served from a
	// SnapshotCache instead of being computed.
	Cached bool
	// Wall is the stage's wall-clock time, summed across fusion rounds for
	// the per-round phases.
	Wall time.Duration
	// In and Out are the stage's input and output sizes in InUnit/OutUnit
	// (records, terms, pairs, edges, matches, clusters).
	In, Out         int
	InUnit, OutUnit string
	// Rounds counts fusion rounds for the per-round phases; 0 elsewhere.
	Rounds int
	// Iterations sums inner ITER iterations across rounds.
	Iterations int
	// ComponentsFused/ComponentsReused and PairsFused/PairsReused record
	// the delta-scoped resolver's work split for the "deltafuse" stage —
	// components (and their candidate pairs) actually fused this run versus
	// served from the component cache. Zero everywhere else.
	ComponentsFused, ComponentsReused int
	PairsFused, PairsReused           int
	// Events narrates noteworthy stage decisions in order (the blocking
	// degradation steps).
	Events []string
}

// Trace is the ordered stage record of one pipeline execution.
type Trace []StageTrace

// Find returns the first entry for the named stage, or nil.
func (t Trace) Find(stage string) *StageTrace {
	for i := range t {
		if t[i].Stage == stage {
			return &t[i]
		}
	}
	return nil
}

// Total sums the wall time of every recorded stage.
func (t Trace) Total() time.Duration {
	var d time.Duration
	for i := range t {
		d += t[i].Wall
	}
	return d
}

// String renders the trace as an aligned table, one stage per line, with
// events indented beneath their stage.
func (t Trace) String() string {
	var sb strings.Builder
	for _, st := range t {
		fmt.Fprintf(&sb, "%-12s %10s", st.Stage, st.Wall.Round(time.Microsecond))
		if st.InUnit != "" || st.OutUnit != "" {
			fmt.Fprintf(&sb, "  %d %s -> %d %s", st.In, st.InUnit, st.Out, st.OutUnit)
		}
		if st.Rounds > 0 {
			fmt.Fprintf(&sb, "  rounds=%d", st.Rounds)
		}
		if st.Iterations > 0 {
			fmt.Fprintf(&sb, " iterations=%d", st.Iterations)
		}
		if st.ComponentsFused > 0 || st.ComponentsReused > 0 {
			fmt.Fprintf(&sb, "  fused=%d/%dp reused=%d/%dp",
				st.ComponentsFused, st.PairsFused, st.ComponentsReused, st.PairsReused)
		}
		if st.Cached {
			sb.WriteString("  [cached]")
		}
		sb.WriteByte('\n')
		for _, ev := range st.Events {
			fmt.Fprintf(&sb, "             - %s\n", ev)
		}
	}
	return sb.String()
}

// fromEngineTrace converts the engine's trace into the public form.
func fromEngineTrace(et engine.Trace) Trace {
	if len(et) == 0 {
		return nil
	}
	out := make(Trace, len(et))
	for i, st := range et {
		out[i] = StageTrace{
			Stage:            st.Stage,
			Cached:           st.Cached,
			Wall:             st.Wall,
			In:               st.In,
			Out:              st.Out,
			InUnit:           st.InUnit,
			OutUnit:          st.OutUnit,
			Rounds:           st.Rounds,
			Iterations:       st.Iterations,
			ComponentsFused:  st.ComponentsFused,
			ComponentsReused: st.ComponentsReused,
			PairsFused:       st.PairsFused,
			PairsReused:      st.PairsReused,
			Events:           st.Events,
		}
	}
	return out
}

// SnapshotCache shares the pre-matching artifacts of pipeline runs —
// tokenized corpus, blocked candidate graph, degradation report —
// content-keyed by dataset and options, so repeated resolutions of the
// same data skip tokenization and blocking entirely. Hand the same cache
// to many runs via Options.Snapshots; all methods are safe for concurrent
// use. The cached artifacts are immutable and shared, never copied.
type SnapshotCache struct {
	c *engine.Cache
}

// NewSnapshotCache returns a cache holding at most capacity snapshots; a
// non-positive capacity selects the engine default (8). Entries are
// evicted least-recently-used first.
func NewSnapshotCache(capacity int) *SnapshotCache {
	return &SnapshotCache{c: engine.NewCache(capacity)}
}

// CacheStats is a point-in-time view of a SnapshotCache's effectiveness.
type CacheStats struct {
	// Hits and Misses count snapshot lookups since the cache was created.
	Hits, Misses int64
	// Entries is the number of snapshots currently held.
	Entries int
	// ComponentHits and ComponentMisses count per-component fusion-result
	// lookups by the delta-scoped resolver (Collection.Resolve), which keys
	// only the components holding a record touched since its previous
	// resolve; ComponentEntries is the number of component results
	// currently held.
	ComponentHits, ComponentMisses int64
	ComponentEntries               int
}

// Stats returns the cache's hit/miss counters and current size. A nil
// cache reports zeros.
func (s *SnapshotCache) Stats() CacheStats {
	if s == nil {
		return CacheStats{}
	}
	st := s.c.Stats()
	return CacheStats{
		Hits: st.Hits, Misses: st.Misses, Entries: st.Entries,
		ComponentHits:    st.ComponentHits,
		ComponentMisses:  st.ComponentMisses,
		ComponentEntries: st.ComponentEntries,
	}
}

// engineCache unwraps the internal cache; nil-safe (nil disables reuse).
func (s *SnapshotCache) engineCache() *engine.Cache {
	if s == nil {
		return nil
	}
	return s.c
}
