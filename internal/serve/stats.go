package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	er "repro"
	"repro/internal/wal"
)

// counters aggregates the server's monotonic event counts. Every request
// increments exactly one terminal counter (completed, failed, shed,
// rejected, tripped, unavailable), which is what the stress suite asserts:
// terminal counts sum to the request count, nothing is lost.
type counters struct {
	admitted    atomic.Int64 // entered the queue
	completed   atomic.Int64 // resolved successfully
	failed      atomic.Int64 // ran and returned an error (any class)
	shed        atomic.Int64 // dequeued but not run: deadline unmeetable or drain
	rejected    atomic.Int64 // fast-failed 429 on a full queue
	tripped     atomic.Int64 // fast-failed 503 by an open breaker
	unavailable atomic.Int64 // fast-failed 503 during drain
	panics      atomic.Int64 // panics converted to errors by the job boundary
	running     atomic.Int64 // gauge: jobs executing right now

	deltaResolves    atomic.Int64 // collection resolves served by the delta path
	resolverRebuilds atomic.Int64 // delta resolves that started a fresh er.Collection
}

// latencyRing keeps the most recent window of duration samples for one
// pipeline stage and reports exact quantiles over that window. A bounded
// window instead of a streaming sketch: the arithmetic is exact, the memory
// is constant, and /stats is called far less often than jobs complete.
type latencyRing struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	filled  bool
}

func newLatencyRing(window int) *latencyRing {
	return &latencyRing{samples: make([]time.Duration, window)}
}

func (r *latencyRing) add(d time.Duration) {
	r.mu.Lock()
	r.samples[r.next] = d
	r.next++
	if r.next == len(r.samples) {
		r.next = 0
		r.filled = true
	}
	r.mu.Unlock()
}

// LatencyStats is the /stats view of one stage's recent latencies.
type LatencyStats struct {
	Samples int     `json:"samples"`
	P50Ms   float64 `json:"p50_ms"`
	P90Ms   float64 `json:"p90_ms"`
	P99Ms   float64 `json:"p99_ms"`
	MaxMs   float64 `json:"max_ms"`
}

// quantiles computes exact quantiles over the current window.
func (r *latencyRing) quantiles() LatencyStats {
	r.mu.Lock()
	n := r.next
	if r.filled {
		n = len(r.samples)
	}
	window := make([]time.Duration, n)
	copy(window, r.samples[:n])
	r.mu.Unlock()
	if n == 0 {
		return LatencyStats{}
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	at := func(q float64) float64 {
		idx := int(q * float64(n-1))
		return float64(window[idx]) / float64(time.Millisecond)
	}
	return LatencyStats{
		Samples: n,
		P50Ms:   at(0.50),
		P90Ms:   at(0.90),
		P99Ms:   at(0.99),
		MaxMs:   float64(window[n-1]) / float64(time.Millisecond),
	}
}

// StageStats is the /stats view of one pipeline stage aggregated across
// every completed job: how often it ran, how often the snapshot cache
// served it, and its cumulative executed wall time (cached servings
// contribute no wall).
type StageStats struct {
	Stage      string  `json:"stage"`
	Executions int64   `json:"executions"`
	Cached     int64   `json:"cached"`
	TotalMs    float64 `json:"total_ms"`
}

// stageTotals aggregates per-stage counters across completed jobs.
type stageTotals struct {
	mu sync.Mutex
	m  map[string]*stageAccum
}

type stageAccum struct {
	executions int64
	cached     int64
	wall       time.Duration
}

func newStageTotals() *stageTotals {
	return &stageTotals{m: make(map[string]*stageAccum)}
}

// record folds one completed job's trace into the totals.
func (t *stageTotals) record(tr er.Trace) {
	t.mu.Lock()
	for _, st := range tr {
		a := t.m[st.Stage]
		if a == nil {
			a = &stageAccum{}
			t.m[st.Stage] = a
		}
		a.executions++
		if st.Cached {
			a.cached++
		} else {
			a.wall += st.Wall
		}
	}
	t.mu.Unlock()
}

// snapshot returns the totals sorted by stage name for a deterministic
// /stats body.
func (t *stageTotals) snapshot() []StageStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.m))
	for name := range t.m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]StageStats, len(names))
	for i, name := range names {
		a := t.m[name]
		out[i] = StageStats{
			Stage:      name,
			Executions: a.executions,
			Cached:     a.cached,
			TotalMs:    float64(a.wall) / float64(time.Millisecond),
		}
	}
	return out
}

// SnapshotCacheStats is the /stats view of the shared snapshot cache:
// whole-dataset pre-matching snapshots plus the per-component fusion
// results the delta-scoped collection resolver memoizes. The component
// counters count only the touched components a resolve keys; untouched
// components are reused without a lookup.
type SnapshotCacheStats struct {
	Enabled          bool  `json:"enabled"`
	Hits             int64 `json:"hits"`
	Misses           int64 `json:"misses"`
	Entries          int   `json:"entries"`
	ComponentHits    int64 `json:"component_hits,omitempty"`
	ComponentMisses  int64 `json:"component_misses,omitempty"`
	ComponentEntries int   `json:"component_entries,omitempty"`
}

func snapshotCacheStats(c *er.SnapshotCache) SnapshotCacheStats {
	if c == nil {
		return SnapshotCacheStats{}
	}
	st := c.Stats()
	return SnapshotCacheStats{
		Enabled: true, Hits: st.Hits, Misses: st.Misses, Entries: st.Entries,
		ComponentHits:    st.ComponentHits,
		ComponentMisses:  st.ComponentMisses,
		ComponentEntries: st.ComponentEntries,
	}
}

// CollectionsStats is the /stats view of the durable-collections store and
// its incremental resolve path: DeltaResolves counts collection resolves
// served delta-scoped, ResolverRebuilds the subset that started a fresh
// er.Collection from every record — the first resolve of a collection
// incarnation, the first after a restart, and the first after the entry
// went stale (more dirty IDs than records, or a sync cut short by a panic).
type CollectionsStats struct {
	Collections      int   `json:"collections"`
	Records          int   `json:"records"`
	DeltaResolves    int64 `json:"delta_resolves"`
	ResolverRebuilds int64 `json:"resolver_rebuilds"`
}

// IdempotencyStats is the /stats view of the exactly-once dedup table.
type IdempotencyStats struct {
	TrackedKeys int   `json:"tracked_keys"`
	Capacity    int   `json:"capacity"`
	Replays     int64 `json:"replays"`
	Conflicts   int64 `json:"conflicts"`
	Evictions   int64 `json:"evictions"`
}

// idempotencyStats snapshots the dedup table's gauges and counters.
func (c *colStore) idempotencyStats() IdempotencyStats {
	c.mu.RLock()
	tracked := len(c.dedup)
	c.mu.RUnlock()
	return IdempotencyStats{
		TrackedKeys: tracked,
		Capacity:    c.dedupCap,
		Replays:     c.replays.Load(),
		Conflicts:   c.conflicts.Load(),
		Evictions:   c.evictions.Load(),
	}
}

// DurabilityStats is the /stats view of the journal and its recovery;
// omitted entirely when no DataDir is configured.
type DurabilityStats struct {
	Phase            string     `json:"phase"`
	SnapshotRestored bool       `json:"snapshot_restored"`
	ReplayedRecords  int64      `json:"replayed_records"`
	TornTail         bool       `json:"torn_tail"`
	TruncatedBytes   int64      `json:"truncated_bytes"`
	Error            string     `json:"error,omitempty"`
	WAL              *wal.Stats `json:"wal,omitempty"`
}

// Stats is the full /stats snapshot.
type Stats struct {
	QueueDepth     int                 `json:"queue_depth"`
	QueueCapacity  int                 `json:"queue_capacity"`
	InFlight       int                 `json:"in_flight"`
	Running        int64               `json:"running"`
	Draining       bool                `json:"draining"`
	Admitted       int64               `json:"admitted"`
	Completed      int64               `json:"completed"`
	Failed         int64               `json:"failed"`
	Shed           int64               `json:"shed"`
	Rejected       int64               `json:"rejected_429"`
	BreakerTripped int64               `json:"breaker_tripped_503"`
	Unavailable    int64               `json:"draining_503"`
	Panics         int64               `json:"panics_recovered"`
	QueueLatency   LatencyStats        `json:"queue_latency"`
	RunLatency     LatencyStats        `json:"run_latency"`
	TotalLatency   LatencyStats        `json:"total_latency"`
	Breakers       []BreakerClassStats `json:"breakers"`
	Stages         []StageStats        `json:"stages"`
	SnapshotCache  SnapshotCacheStats  `json:"snapshot_cache"`
	Collections    CollectionsStats    `json:"collections"`
	Idempotency    IdempotencyStats    `json:"idempotency"`
	Durability     *DurabilityStats    `json:"durability,omitempty"`
}
