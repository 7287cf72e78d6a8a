package er

import "repro/internal/engine"

// StageTrace records one pipeline stage execution: the stage name
// ("tokenize", "block", "partition" unless UseRSS, "iter", "cliquerank"
// or "rss" (including the build of the record graph it ranks), "fuse",
// "cluster", "evaluate", and on Collection resolves
// "partition", "materialize", "deltafuse"), wall time under the run's clock,
// input/output sizes, round and iteration counts for the fusion phases,
// the delta resolver's fused/reused split, and degradation events. Cached
// marks a stage served from a SnapshotCache.
type StageTrace = engine.StageTrace

// Trace is the ordered stage record of one pipeline execution. Find
// returns the first entry for a stage, Total sums the wall times and
// String renders an aligned table.
type Trace = engine.Trace

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

// CacheStats is a point-in-time view of a SnapshotCache's effectiveness:
// snapshot hits, misses and entries, plus the per-component fusion-result
// counters of the delta-scoped resolver (Collection.Resolve).
type CacheStats = engine.CacheStats

// Stats returns the cache's hit/miss counters and current size. A nil
// cache reports zeros.
func (s *SnapshotCache) Stats() CacheStats { return s.engineCache().Stats() }

// engineCache unwraps the internal cache; nil-safe (nil disables reuse).
func (s *SnapshotCache) engineCache() *engine.Cache {
	if s == nil {
		return nil
	}
	return s.c
}
