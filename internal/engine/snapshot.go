package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"sync"

	"repro/internal/index"
	"repro/internal/textproc"
)

// Snapshot is the cacheable artifact of the pre-matching stages: the
// tokenized corpus and the blocked candidate graph for one dataset under
// one option set, keyed by content. Both structures are immutable once
// built (every downstream stage only reads them), which is what makes
// sharing a snapshot across jobs safe.
type Snapshot struct {
	// Key is the content key the snapshot was stored under (see Key);
	// empty when Prepare ran without a cache.
	Key string
	// Corpus is the tokenized, frequency-filtered corpus.
	Corpus *textproc.Corpus
	// Graph is the blocked candidate-pair graph.
	Graph *index.Graph
	// Degradation describes how blocking was degraded to satisfy the pair
	// budget; nil when the budget was disabled or never exceeded.
	Degradation *Degradation
}

// NumRecords returns the snapshot's record count.
func (s *Snapshot) NumRecords() int { return s.Corpus.NumRecords() }

// NumTerms returns the number of terms that survived pre-processing.
func (s *Snapshot) NumTerms() int { return s.Corpus.NumTerms() }

// NumPairs returns the candidate pair count.
func (s *Snapshot) NumPairs() int { return s.Graph.NumPairs() }

// Key derives the content key of the pre-matching artifacts: a hash over
// the record texts and source labels plus every option that influences
// tokenization or blocking. Runs with equal keys produce byte-identical
// corpora and candidate graphs, so a cached snapshot substitutes exactly.
func Key(texts []string, sources []int, copts textproc.CorpusOptions, bopts index.BatchOptions, maxPairs int) string {
	h := sha256.New()
	fmt.Fprintf(h, "v1|records=%d|", len(texts))
	for _, t := range texts {
		fmt.Fprintf(h, "%d:", len(t))
		io.WriteString(h, t)
	}
	fmt.Fprintf(h, "|sources=%d|", len(sources))
	for _, s := range sources {
		fmt.Fprintf(h, "%d,", s)
	}
	fmt.Fprintf(h, "|tok=%t,%d,%t|df=%g|stop=",
		copts.Tokenize.Lowercase, copts.Tokenize.MinLen, copts.Tokenize.KeepDigits,
		copts.MaxDFRatio)
	stop := append([]string(nil), copts.Stopwords...)
	sort.Strings(stop)
	for _, w := range stop {
		fmt.Fprintf(h, "%q,", w)
	}
	fmt.Fprintf(h, "|block=%t,%d,%d,%g|budget=%d",
		bopts.CrossSourceOnly, bopts.MaxTermRecords, bopts.MinSharedTerms, bopts.MinJaccard, maxPairs)
	return hex.EncodeToString(h.Sum(nil))
}

// KeyMemo holds one holder's snapshot content key: the key Prepare stored
// on the snapshot when a cache was set, or else Key over the inputs,
// computed on the first call. It lives beside the snapshot, never on it,
// because a cached snapshot is shared across runs. The zero value is
// ready to use; a KeyMemo must not be copied after first use.
type KeyMemo struct {
	once sync.Once
	key  string
}

// Get returns the content key of snap, built from the inputs that inputs
// returns; inputs is called at most once, and only when snap has no key.
func (m *KeyMemo) Get(snap *Snapshot, inputs func() PrepareInputs) string {
	m.once.Do(func() {
		m.key = snap.Key
		if m.key == "" {
			in := inputs()
			m.key = in.Key()
		}
	})
	return m.key
}

// DefaultCacheCapacity is the snapshot capacity NewCache selects for
// non-positive requests.
const DefaultCacheCapacity = 8

// DefaultComponentCapacity bounds the per-component fusion results a cache
// holds. Components are small (a handful of floats each) and numerous — a
// 100k-record corpus decomposes into tens of thousands — so the bound is
// set well above the snapshot capacity.
const DefaultComponentCapacity = 1 << 16

// CacheStats is a point-in-time view of a cache's effectiveness (exported
// as er.CacheStats).
type CacheStats struct {
	// Hits and Misses count snapshot lookups since the cache was created.
	Hits, Misses int64
	// Entries is the number of snapshots currently held.
	Entries int
	// ComponentHits and ComponentMisses count per-component fusion-result
	// lookups. ComponentFuser keys only the components it is handed, so
	// under er.Collection only the components holding a record touched
	// since the previous resolve are counted. ComponentEntries is the
	// number of component results currently held.
	ComponentHits, ComponentMisses int64
	ComponentEntries               int
}

// ComponentResult is the memoized fusion outcome of one candidate-graph
// component: the local pair probabilities (aligned with the component's
// ascending global-pair order) plus the aggregates the resolver folds into
// the global result. Stored under a content key over the component's
// localized structure and the fusion options, so equal keys imply
// bit-identical results.
type ComponentResult struct {
	P              []float64
	Converged      bool
	NumericRepairs int
	Edges          int
}

// Cache is a bounded, mutex-guarded LRU of snapshots, plus a keyed store
// of per-component fusion results, shared across runs. All methods are
// safe for concurrent use and nil-safe: a nil *Cache behaves as an
// always-miss cache, so callers can thread an optional cache without
// branching.
type Cache struct {
	mu       sync.Mutex
	capacity int
	snaps    map[string]*Snapshot
	order    []string // least recently used first
	hits     int64
	misses   int64

	// Component-result section: an approximate-LRU keyed store for the
	// delta-scoped resolver. Entries carry a logical use tick; eviction
	// drops the least recently used eighth when the bound is hit, which
	// keeps lookups O(1) (a true LRU list would cost a linear touch per
	// hit at tens of thousands of entries).
	comps    map[string]*compEntry
	compCap  int
	compTick int64
	compHits int64
	compMiss int64
}

// compEntry pairs a component result with its last-use tick.
type compEntry struct {
	res  *ComponentResult
	used int64
}

// NewCache returns a cache holding at most capacity snapshots. A
// non-positive capacity selects DefaultCacheCapacity.
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		snaps:    make(map[string]*Snapshot),
		comps:    make(map[string]*compEntry),
		compCap:  DefaultComponentCapacity,
	}
}

// Component returns the memoized fusion result stored under a component
// content key, counting a hit or a miss. A nil cache always misses without
// counting. Callers must not mutate the returned result.
func (c *Cache) Component(key string) (*ComponentResult, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.comps[key]
	if !ok {
		c.compMiss++
		return nil, false
	}
	c.compHits++
	c.compTick++
	e.used = c.compTick
	return e.res, true
}

// AddComponent memoizes a component fusion result, evicting the least
// recently used eighth of the section when the bound is hit. Adding to a
// nil cache is a no-op.
func (c *Cache) AddComponent(key string, res *ComponentResult) {
	if c == nil || key == "" || res == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.comps) >= c.compCap {
		c.evictComponents()
	}
	c.compTick++
	c.comps[key] = &compEntry{res: res, used: c.compTick}
}

// evictComponents drops the least recently used eighth of the component
// section. Callers hold c.mu. Which entries survive affects only future hit
// rates, never results — component keys are content keys.
func (c *Cache) evictComponents() {
	ticks := make([]int64, 0, len(c.comps))
	for _, e := range c.comps {
		ticks = append(ticks, e.used)
	}
	sort.Slice(ticks, func(a, b int) bool { return ticks[a] < ticks[b] })
	cut := ticks[len(ticks)/8]
	for k, e := range c.comps {
		if e.used <= cut {
			delete(c.comps, k)
		}
	}
}

// Lookup returns the snapshot stored under key, marking it most recently
// used. It counts a hit or a miss; a nil cache always misses without
// counting.
func (c *Cache) Lookup(key string) (*Snapshot, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s, ok := c.snaps[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.touch(key)
	return s, true
}

// Add stores a snapshot under its own Key, evicting the least recently
// used entry past capacity. Adding to a nil cache is a no-op.
func (c *Cache) Add(s *Snapshot) {
	if c == nil || s == nil || s.Key == "" {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.snaps[s.Key]; ok {
		c.snaps[s.Key] = s
		c.touch(s.Key)
		return
	}
	for len(c.snaps) >= c.capacity && len(c.order) > 0 {
		evict := c.order[0]
		c.order = c.order[1:]
		delete(c.snaps, evict)
	}
	c.snaps[s.Key] = s
	c.order = append(c.order, s.Key)
}

// Stats returns the cache's hit/miss counters and current size. A nil
// cache reports zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Entries: len(c.snaps),
		ComponentHits: c.compHits, ComponentMisses: c.compMiss,
		ComponentEntries: len(c.comps),
	}
}

// touch moves key to the most-recently-used end of the order. Callers
// hold c.mu.
func (c *Cache) touch(key string) {
	for i, k := range c.order {
		if k == key {
			c.order = append(append(c.order[:i:i], c.order[i+1:]...), key)
			return
		}
	}
	c.order = append(c.order, key)
}
