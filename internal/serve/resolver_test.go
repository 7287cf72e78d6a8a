package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"testing"
	"time"

	er "repro"
	"repro/internal/dataset"
)

// resolveCollectionDelta posts an override-free resolve, which routes
// through the delta-scoped path.
func resolveCollectionDeltaJSON(t *testing.T, base, name string) (int, jobResponse) {
	t.Helper()
	resp, err := http.Post(base+"/collections/"+name+"/resolve", "application/json", nil)
	if err != nil {
		t.Fatalf("POST resolve: %v", err)
	}
	defer resp.Body.Close()
	var jr jobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decode resolve response: %v", err)
	}
	return resp.StatusCode, jr
}

// TestCollectionDeltaResolve drives the delta-scoped resolve path: the
// first resolve rebuilds the mirror and fuses everything, a resolve after
// one record mutation re-fuses only the touched components, and the
// response and /stats expose the work split.
func TestCollectionDeltaResolve(t *testing.T) {
	_, hs := newTestServer(t, Options{BreakerThreshold: -1})
	n := seedCollection(t, hs.URL, "shops")

	status, jr := resolveCollectionDeltaJSON(t, hs.URL, "shops")
	if status != http.StatusOK || jr.State != JobCompleted {
		t.Fatalf("resolve = %d/%s (%s), want 200/completed", status, jr.State, jr.Error)
	}
	if jr.Records != n {
		t.Fatalf("resolved %d records, want %d", jr.Records, n)
	}
	if jr.Delta == nil {
		t.Fatal("delta-scoped resolve did not report delta stats")
	}
	if jr.Delta.Components == 0 || jr.Delta.ComponentsFused == 0 {
		t.Fatalf("cold resolve should fuse components: %+v", *jr.Delta)
	}
	var deltafuse *stageJSON
	for i := range jr.Stages {
		if jr.Stages[i].Stage == "deltafuse" {
			deltafuse = &jr.Stages[i]
		}
	}
	if deltafuse == nil {
		t.Fatalf("no deltafuse stage in trace: %+v", jr.Stages)
	}
	if deltafuse.ComponentsFused != jr.Delta.ComponentsFused {
		t.Fatalf("stage/delta split mismatch: %+v vs %+v", *deltafuse, *jr.Delta)
	}

	// An unmutated second resolve reuses every component.
	status, jr2 := resolveCollectionDeltaJSON(t, hs.URL, "shops")
	if status != http.StatusOK || jr2.Delta == nil {
		t.Fatalf("second resolve = %d, delta %v", status, jr2.Delta)
	}
	if jr2.Delta.ComponentsFused != 0 || jr2.Delta.ComponentsReused != jr2.Delta.Components {
		t.Fatalf("no-op resolve should reuse everything: %+v", *jr2.Delta)
	}
	if len(jr2.Pairs) != len(jr.Pairs) || jr2.Matches != jr.Matches {
		t.Fatalf("no-op resolve changed results: %d/%d matches", jr2.Matches, jr.Matches)
	}

	// Mutate one record; only its component re-fuses.
	url := fmt.Sprintf("%s/collections/shops/records/r05", hs.URL)
	if status, body := doJSON(t, http.MethodPut, url,
		`{"entity":"e4","source":1,"text":"mission chinese food 2234 mission street sf"}`); status != http.StatusOK {
		t.Fatalf("upsert = %d (%v), want 200", status, body)
	}
	status, jr3 := resolveCollectionDeltaJSON(t, hs.URL, "shops")
	if status != http.StatusOK || jr3.Delta == nil {
		t.Fatalf("post-mutation resolve = %d, delta %v", status, jr3.Delta)
	}
	if jr3.Delta.ComponentsReused == 0 {
		t.Fatalf("post-mutation resolve should reuse untouched components: %+v", *jr3.Delta)
	}

	st := getStats(t, hs.URL)
	if st.Collections.DeltaResolves != 3 {
		t.Fatalf("stats delta_resolves = %d, want 3", st.Collections.DeltaResolves)
	}
	if st.Collections.ResolverRebuilds != 1 {
		t.Fatalf("stats resolver_rebuilds = %d, want 1 (first resolve only)", st.Collections.ResolverRebuilds)
	}
	if st.SnapshotCache.ComponentMisses == 0 || st.SnapshotCache.ComponentEntries == 0 {
		t.Fatalf("component cache stats not populated: %+v", st.SnapshotCache)
	}

	// A resolve with overrides still takes the batch path — no delta stats.
	status, jr4 := resolveCollection(t, hs.URL, "shops")
	if status != http.StatusOK || jr4.State != JobCompleted {
		t.Fatalf("override resolve = %d/%s (%s)", status, jr4.State, jr4.Error)
	}
	if jr4.Delta != nil {
		t.Fatalf("override resolve must use the batch path, got delta %+v", *jr4.Delta)
	}
}

// TestCollectionDeltaResolveDropRecreate pins mirror invalidation: dropping
// and recreating a collection under the same name must not leak the old
// incarnation's state into resolves of the new one.
func TestCollectionDeltaResolveDropRecreate(t *testing.T) {
	_, hs := newTestServer(t, Options{BreakerThreshold: -1})
	seedCollection(t, hs.URL, "shops")
	if status, jr := resolveCollectionDeltaJSON(t, hs.URL, "shops"); status != http.StatusOK || jr.State != JobCompleted {
		t.Fatalf("resolve = %d/%s (%s)", status, jr.State, jr.Error)
	}

	if status, _ := doJSON(t, http.MethodDelete, hs.URL+"/collections/shops", ""); status != http.StatusOK {
		t.Fatalf("drop = %d, want 200", status)
	}
	if status, _ := doJSON(t, http.MethodPost, hs.URL+"/collections", `{"name":"shops"}`); status != http.StatusCreated {
		t.Fatalf("recreate = %d, want 201", status)
	}
	if status, _ := doJSON(t, http.MethodPut, hs.URL+"/collections/shops/records/solo",
		`{"text":"one lonely record"}`); status != http.StatusOK {
		t.Fatalf("upsert = %d, want 200", status)
	}
	status, jr := resolveCollectionDeltaJSON(t, hs.URL, "shops")
	if status != http.StatusOK || jr.State != JobCompleted {
		t.Fatalf("resolve after recreate = %d/%s (%s)", status, jr.State, jr.Error)
	}
	if jr.Records != 1 || jr.Matches != 0 {
		t.Fatalf("recreated collection resolved %d records / %d matches, want 1/0", jr.Records, jr.Matches)
	}
}

// deltaHarness drives one collection over HTTP while keeping its own model
// of the records, so every served delta resolve can be checked against a
// fresh in-process er.Collection over the same record set.
type deltaHarness struct {
	t     *testing.T
	base  string
	name  string
	model map[string]colRecord
	pool  []colRecord
	rng   *rand.Rand
}

func newDeltaHarness(t *testing.T, base, name string) *deltaHarness {
	// The pool is ordered by entity, so every loaded range holds duplicates.
	d := dataset.GenRestaurant(dataset.GenConfig{Seed: 3, Scale: 0.15})
	recs := d.Records
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].EntityID < recs[j].EntityID })
	pool := make([]colRecord, len(recs))
	for i, r := range recs {
		pool[i] = colRecord{Text: r.Text, Source: r.Source, Entity: fmt.Sprintf("e%d", r.EntityID)}
	}
	h := &deltaHarness{t: t, base: base, name: name, pool: pool, rng: rand.New(rand.NewSource(7))}
	h.create()
	return h
}

// create (re)creates the collection empty.
func (h *deltaHarness) create() {
	h.t.Helper()
	if status, body := doJSON(h.t, http.MethodPost, h.base+"/collections", fmt.Sprintf(`{"name":%q}`, h.name)); status != http.StatusCreated {
		h.t.Fatalf("create %q = %d (%v), want 201", h.name, status, body)
	}
	h.model = make(map[string]colRecord)
}

func (h *deltaHarness) drop() {
	h.t.Helper()
	if status, body := doJSON(h.t, http.MethodDelete, h.base+"/collections/"+h.name, ""); status != http.StatusOK {
		h.t.Fatalf("drop %q = %d (%v), want 200", h.name, status, body)
	}
	h.model = nil
}

func (h *deltaHarness) put(id string, rec colRecord) {
	h.t.Helper()
	body, err := json.Marshal(rec)
	if err != nil {
		h.t.Fatal(err)
	}
	if status, resp := doJSON(h.t, http.MethodPut, h.base+"/collections/"+h.name+"/records/"+id, string(body)); status != http.StatusOK {
		h.t.Fatalf("upsert %s = %d (%v), want 200", id, status, resp)
	}
	h.model[id] = rec
}

func (h *deltaHarness) del(id string) {
	h.t.Helper()
	if status, resp := doJSON(h.t, http.MethodDelete, h.base+"/collections/"+h.name+"/records/"+id, ""); status != http.StatusOK {
		h.t.Fatalf("delete %s = %d (%v), want 200", id, status, resp)
	}
	delete(h.model, id)
}

// load upserts pool records [from, to) under their own IDs.
func (h *deltaHarness) load(from, to int) {
	for i := from; i < to; i++ {
		h.put(fmt.Sprintf("r%04d", i), h.pool[i])
	}
}

// ids lists the modelled record IDs in ascending order.
func (h *deltaHarness) ids() []string {
	ids := make([]string, 0, len(h.model))
	for id := range h.model {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// churn applies n random mutations: overwrites with a donor record,
// inserts under fresh IDs, and deletes.
func (h *deltaHarness) churn(n int) {
	for k := 0; k < n; k++ {
		ids := h.ids()
		switch op := h.rng.Intn(10); {
		case op < 2 && len(ids) > 1:
			h.del(ids[h.rng.Intn(len(ids))])
		case op < 4:
			h.put(fmt.Sprintf("n%04d", h.rng.Intn(200)), h.pool[h.rng.Intn(len(h.pool))])
		case len(ids) > 0:
			h.put(ids[h.rng.Intn(len(ids))], h.pool[h.rng.Intn(len(h.pool))])
		}
	}
}

// check runs an override-free (delta-path) resolve and demands the same
// records, matches, clusters, F1 and pair list as a fresh er.Collection
// over the modelled records.
func (h *deltaHarness) check() {
	h.t.Helper()
	resp, err := http.Post(h.base+"/collections/"+h.name+"/resolve?pairs=1", "application/json", nil)
	if err != nil {
		h.t.Fatalf("POST resolve: %v", err)
	}
	var got jobResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		h.t.Fatalf("decode resolve response: %v", err)
	}
	if resp.StatusCode != http.StatusOK || got.State != JobCompleted || got.Delta == nil {
		h.t.Fatalf("resolve = %d/%s (%s), delta %v; want a completed delta resolve", resp.StatusCode, got.State, got.Error, got.Delta)
	}

	col, err := er.NewCollection(er.DefaultOptions())
	if err != nil {
		h.t.Fatal(err)
	}
	for _, id := range h.ids() {
		r := h.model[id]
		col.Upsert(id, er.Record{Text: r.Text, Source: r.Source, Entity: r.Entity})
	}
	want, err := col.Resolve()
	if err != nil {
		h.t.Fatalf("reference resolve: %v", err)
	}
	if got.Records != len(h.model) || got.Matches != len(want.Matches) || got.Clusters != len(want.Clusters) {
		h.t.Fatalf("served resolve = %d records / %d matches / %d clusters, fresh collection = %d / %d / %d",
			got.Records, got.Matches, got.Clusters, len(h.model), len(want.Matches), len(want.Clusters))
	}
	if got.Evaluation == nil || want.Evaluation == nil || got.Evaluation.F1 != want.Evaluation.F1 {
		h.t.Fatalf("served evaluation %+v, fresh collection %+v", got.Evaluation, want.Evaluation)
	}
	for i, m := range want.Matches {
		if p := got.Pairs[i]; p.I != m.I || p.J != m.J || p.Probability != m.Probability {
			h.t.Fatalf("pair %d: served %+v, fresh collection %+v", i, p, m)
		}
	}
}

// TestDeltaResolveMatchesFreshCollection pins the served delta resolve to
// its definition: whatever mutation history, lag, drop or restart led to
// a record set, resolving it over HTTP gives what a fresh er.Collection
// over the same records gives.
func TestDeltaResolveMatchesFreshCollection(t *testing.T) {
	t.Run("lag beyond 1024 mutations", func(t *testing.T) {
		_, hs := newTestServer(t, Options{BreakerThreshold: -1})
		h := newDeltaHarness(t, hs.URL, "lag")
		h.load(0, 120)
		h.check()
		h.churn(1100)
		h.check()
		h.churn(20)
		h.check()
	})

	t.Run("deletes outgrow live records", func(t *testing.T) {
		_, hs := newTestServer(t, Options{BreakerThreshold: -1})
		h := newDeltaHarness(t, hs.URL, "shrink")
		h.load(0, 40)
		h.check()
		for i := 0; i < 30; i++ {
			h.del(fmt.Sprintf("r%04d", i))
		}
		h.check()
		h.load(5, 25) // deleted IDs return
		h.churn(10)
		h.check()
	})

	t.Run("drop and recreate", func(t *testing.T) {
		_, hs := newTestServer(t, Options{BreakerThreshold: -1})
		h := newDeltaHarness(t, hs.URL, "cycle")
		h.load(0, 40)
		h.check()
		h.drop()
		h.create()
		h.load(20, 60) // overlaps the old incarnation's IDs
		h.check()
		h.churn(15)
		h.drop()
		h.create()
		h.load(0, 10)
		h.check()
	})

	t.Run("restart by WAL replay", func(t *testing.T) {
		dir := t.TempDir()
		s1, hs1 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
		waitReady(t, s1)
		h := newDeltaHarness(t, hs1.URL, "wal")
		h.load(0, 30)
		h.check()
		h.churn(15)

		// No Shutdown: the second server replays the journal.
		s2, hs2 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
		waitReady(t, s2)
		if st := getStats(t, hs2.URL); st.Durability.SnapshotRestored || st.Durability.ReplayedRecords == 0 {
			t.Fatalf("durability = %+v, want a journal replay", st.Durability)
		}
		h.base = hs2.URL
		h.check()
		h.churn(10)
		h.check()
	})

	t.Run("restart from snapshot", func(t *testing.T) {
		dir := t.TempDir()
		s1, err := New(Options{DataDir: dir, BreakerThreshold: -1})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		hs1 := httptest.NewServer(s1.Handler())
		defer hs1.Close()
		waitReady(t, s1)
		h := newDeltaHarness(t, hs1.URL, "snap")
		h.load(0, 30)
		h.check()
		h.churn(15)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s1.Shutdown(ctx); err != nil {
			t.Fatalf("shutdown: %v", err)
		}

		s2, hs2 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
		waitReady(t, s2)
		if st := getStats(t, hs2.URL); !st.Durability.SnapshotRestored {
			t.Fatalf("durability = %+v, want a snapshot restore", st.Durability)
		}
		h.base = hs2.URL
		h.check()
		h.churn(10)
		h.check()
	})
}

// panicCtx panics on first use, standing in for a bug hit mid-resolve.
type panicCtx struct{ context.Context }

func (panicCtx) Done() <-chan struct{} { panic("injected resolve panic") }
func (panicCtx) Err() error            { panic("injected resolve panic") }

// TestDeltaResolveStaleRules pins when a delta resolve starts a fresh
// resolver: never for a long run of overwrites (the dirty set stays within
// the records), once the dirty set outgrows the records (deletions), and
// after a sync cut short by a panic, which has already taken the dirty IDs.
func TestDeltaResolveStaleRules(t *testing.T) {
	s, hs := newTestServer(t, Options{BreakerThreshold: -1})
	h := newDeltaHarness(t, hs.URL, "stale")
	rebuilds := func(want int64) {
		t.Helper()
		if got := getStats(t, hs.URL).Collections.ResolverRebuilds; got != want {
			t.Fatalf("resolver_rebuilds = %d, want %d", got, want)
		}
	}
	h.load(0, 40)
	h.check()
	rebuilds(1)

	for k := 0; k < 1100; k++ {
		h.put(fmt.Sprintf("r%04d", k%40), h.pool[h.rng.Intn(len(h.pool))])
	}
	h.check()
	rebuilds(1)

	for i := 0; i < 21; i++ { // 21 dirty IDs, 19 records
		h.del(fmt.Sprintf("r%04d", i))
	}
	h.check()
	rebuilds(2)

	h.load(0, 10)
	if _, err := s.resolveCollectionDelta(panicCtx{context.Background()}, h.name); !errors.Is(err, er.ErrInternal) {
		t.Fatalf("interrupted resolve = %v, want ErrInternal", err)
	}
	h.check()
	rebuilds(3)
}

// TestDeltaResolveDroppedEntryFails pins drop/recreate safety: a resolve
// still holding the entry of a dropped incarnation cannot sync it, even
// once the name is taken again.
func TestDeltaResolveDroppedEntryFails(t *testing.T) {
	s, hs := newTestServer(t, Options{BreakerThreshold: -1})
	seedCollection(t, hs.URL, "shops")
	s.cols.mu.RLock()
	old := s.cols.cols["shops"]
	s.cols.mu.RUnlock()
	if status, _ := doJSON(t, http.MethodDelete, hs.URL+"/collections/shops", ""); status != http.StatusOK {
		t.Fatalf("drop = %d, want 200", status)
	}
	if _, _, ok := s.cols.takeChanges("shops", old); ok {
		t.Fatal("dropped entry synced")
	}
	if status, _ := doJSON(t, http.MethodPost, hs.URL+"/collections", `{"name":"shops"}`); status != http.StatusCreated {
		t.Fatalf("recreate = %d, want 201", status)
	}
	if _, _, ok := s.cols.takeChanges("shops", old); ok {
		t.Fatal("dropped entry synced after the name was recreated")
	}
}
