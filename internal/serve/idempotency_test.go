package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// doKeyed issues one request with an Idempotency-Key and returns status,
// the Idempotency-Replayed header, and the decoded body.
func doKeyed(t *testing.T, method, url, key, body string) (int, bool, map[string]any) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decode body: %v", method, url, err)
	}
	return resp.StatusCode, resp.Header.Get("Idempotency-Replayed") == "true", out
}

// TestIdempotentPutReplaysNotReapplies is the core exactly-once contract:
// the same keyed request repeated returns the original outcome, marked
// replayed, without applying again.
func TestIdempotentPutReplaysNotReapplies(t *testing.T) {
	s, hs := newTestServer(t, Options{DataDir: t.TempDir(), BreakerThreshold: -1})
	waitReady(t, s)
	if status, _, body := doKeyed(t, http.MethodPost, hs.URL+"/collections", "", `{"name":"shops"}`); status != http.StatusCreated {
		t.Fatalf("create = %d (%v)", status, body)
	}

	url := hs.URL + "/collections/shops/records/r1"
	const rec = `{"entity":"e1","source":0,"text":"joe's pizza"}`
	status, replayed, body := doKeyed(t, http.MethodPut, url, "key-1", rec)
	if status != http.StatusOK || replayed {
		t.Fatalf("first put = %d replayed=%v (%v), want 200 fresh", status, replayed, body)
	}

	for i := 0; i < 3; i++ {
		rStatus, rReplayed, rBody := doKeyed(t, http.MethodPut, url, "key-1", rec)
		if rStatus != http.StatusOK || !rReplayed {
			t.Fatalf("retry %d = %d replayed=%v, want 200 replayed", i, rStatus, rReplayed)
		}
		if got, _ := json.Marshal(rBody); string(got) != mustJSON(t, body) {
			t.Fatalf("retry %d body %s != original %v", i, got, body)
		}
	}

	st := getStats(t, hs.URL)
	if st.Idempotency.Replays != 3 || st.Idempotency.Conflicts != 0 {
		t.Fatalf("idempotency stats = %+v, want 3 replays, 0 conflicts", st.Idempotency)
	}
	// One keyed PUT → one tracked key; the create above was keyless.
	if st.Idempotency.TrackedKeys != 1 {
		t.Fatalf("tracked keys = %d, want 1 (stats %+v)", st.Idempotency.TrackedKeys, st.Idempotency)
	}
	if st.Collections.Records != 1 {
		t.Fatalf("records = %d, want 1 (retries must not duplicate)", st.Collections.Records)
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestIdempotencyKeyConflict: the same key with a different body is a
// client bug and must be refused, not guessed at.
func TestIdempotencyKeyConflict(t *testing.T) {
	_, hs := newTestServer(t, Options{BreakerThreshold: -1})
	doKeyed(t, http.MethodPost, hs.URL+"/collections", "", `{"name":"shops"}`)

	url := hs.URL + "/collections/shops/records/r1"
	if status, _, _ := doKeyed(t, http.MethodPut, url, "key-c", `{"text":"original"}`); status != http.StatusOK {
		t.Fatalf("first put = %d", status)
	}
	status, replayed, body := doKeyed(t, http.MethodPut, url, "key-c", `{"text":"different"}`)
	if status != http.StatusUnprocessableEntity || replayed {
		t.Fatalf("conflicting reuse = %d replayed=%v (%v), want 422", status, replayed, body)
	}
	if body["kind"] != "idempotency_conflict" {
		t.Fatalf("kind = %v, want idempotency_conflict", body["kind"])
	}
	// Same key on a different METHOD (delete vs put) conflicts too, even
	// though the delete's mutation body would also differ.
	if status, _, _ := doKeyed(t, http.MethodDelete, url, "key-c", ""); status != http.StatusUnprocessableEntity {
		t.Fatalf("cross-type reuse = %d, want 422", status)
	}
	if st := getStats(t, hs.URL); st.Idempotency.Conflicts != 2 {
		t.Fatalf("conflicts = %d, want 2", st.Idempotency.Conflicts)
	}
}

// TestIdempotencyKeyTooLong: oversized keys are rejected before touching
// state — the journal's key frame caps at 255 bytes and serve below that.
func TestIdempotencyKeyTooLong(t *testing.T) {
	_, hs := newTestServer(t, Options{BreakerThreshold: -1})
	key := strings.Repeat("k", maxIdempotencyKeyBytes+1)
	status, _, body := doKeyed(t, http.MethodPost, hs.URL+"/collections", key, `{"name":"shops"}`)
	if status != http.StatusBadRequest {
		t.Fatalf("oversized key = %d (%v), want 400", status, body)
	}
	if st := getStats(t, hs.URL); st.Collections.Collections != 0 {
		t.Fatal("rejected request must not create the collection")
	}
}

// TestIdempotencyReplayAcrossCrashRestart: the dedup table is journaled,
// so a retry that lands after a crash-restart (no clean shutdown, replay
// from the log) still replays instead of re-applying.
func TestIdempotencyReplayAcrossCrashRestart(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
	waitReady(t, s1)
	doKeyed(t, http.MethodPost, hs1.URL+"/collections", "key-create", `{"name":"shops"}`)
	const rec = `{"entity":"e1","source":0,"text":"joe's pizza"}`
	if status, _, _ := doKeyed(t, http.MethodPut, hs1.URL+"/collections/shops/records/r1", "key-put", rec); status != http.StatusOK {
		t.Fatal("seed put failed")
	}

	// No Shutdown: a second server over the same directory sees exactly
	// what a post-SIGKILL restart sees.
	s2, hs2 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
	waitReady(t, s2)

	st := getStats(t, hs2.URL)
	if st.Idempotency.TrackedKeys != 2 {
		t.Fatalf("tracked keys after replay = %d, want 2", st.Idempotency.TrackedKeys)
	}
	// Retrying both mutations against the restarted server replays.
	if status, replayed, _ := doKeyed(t, http.MethodPost, hs2.URL+"/collections", "key-create", `{"name":"shops"}`); status != http.StatusCreated || !replayed {
		t.Fatalf("create retry after restart = %d replayed=%v, want 201 replayed", status, replayed)
	}
	if status, replayed, _ := doKeyed(t, http.MethodPut, hs2.URL+"/collections/shops/records/r1", "key-put", rec); status != http.StatusOK || !replayed {
		t.Fatalf("put retry after restart = %d replayed=%v, want 200 replayed", status, replayed)
	}
	if st := getStats(t, hs2.URL); st.Collections.Records != 1 {
		t.Fatalf("records = %d, want 1", st.Collections.Records)
	}
}

// TestIdempotencyTableSurvivesSnapshot: after a clean shutdown (which
// writes a final snapshot and truncates the log) the dedup table rides the
// snapshot, not the discarded tail.
func TestIdempotencyTableSurvivesSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{DataDir: dir, BreakerThreshold: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs1 := httptest.NewServer(s1.Handler())
	waitReady(t, s1)
	doKeyed(t, http.MethodPost, hs1.URL+"/collections", "key-create", `{"name":"shops"}`)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	hs1.Close()

	s2, hs2 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
	waitReady(t, s2)
	st := getStats(t, hs2.URL)
	if st.Durability == nil || !st.Durability.SnapshotRestored {
		t.Fatalf("durability = %+v, want snapshot restore", st.Durability)
	}
	if st.Idempotency.TrackedKeys != 1 {
		t.Fatalf("tracked keys from snapshot = %d, want 1", st.Idempotency.TrackedKeys)
	}
	if status, replayed, _ := doKeyed(t, http.MethodPost, hs2.URL+"/collections", "key-create", `{"name":"shops"}`); status != http.StatusCreated || !replayed {
		t.Fatalf("retry after snapshot restore = %d replayed=%v, want 201 replayed", status, replayed)
	}
}

// TestIdempotencyEvictionJournaled: a tiny capacity forces evictions; the
// evicted key loses replay protection (a retry re-applies as fresh), the
// surviving keys keep it, and a crash-restart agrees with the in-memory
// table because the evictions were journaled.
func TestIdempotencyEvictionJournaled(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1, DedupCapacity: 2})
	waitReady(t, s1)
	doKeyed(t, http.MethodPost, hs1.URL+"/collections", "", `{"name":"shops"}`)
	for _, k := range []string{"key-a", "key-b", "key-c"} {
		url := hs1.URL + "/collections/shops/records/" + k
		if status, _, _ := doKeyed(t, http.MethodPut, url, k, `{"text":"x"}`); status != http.StatusOK {
			t.Fatalf("put %s failed", k)
		}
	}
	st := getStats(t, hs1.URL)
	if st.Idempotency.TrackedKeys != 2 || st.Idempotency.Evictions != 1 || st.Idempotency.Capacity != 2 {
		t.Fatalf("idempotency stats = %+v, want 2 tracked / 1 evicted / cap 2", st.Idempotency)
	}
	// key-a was evicted: its retry applies fresh (observable here as a
	// non-replayed 200 — and it re-enters the table, evicting key-b).
	if _, replayed, _ := doKeyed(t, http.MethodPut, hs1.URL+"/collections/shops/records/key-a", "key-a", `{"text":"x"}`); replayed {
		t.Fatal("evicted key must not replay")
	}
	// key-c survived both evictions and still replays.
	if _, replayed, _ := doKeyed(t, http.MethodPut, hs1.URL+"/collections/shops/records/key-c", "key-c", `{"text":"x"}`); !replayed {
		t.Fatal("resident key must replay")
	}

	// Past 3× capacity every keyed put evicts the head: the table holds the
	// two newest keys, oldest first.
	for i := 0; i < 6; i++ {
		k := fmt.Sprintf("key-%d", i)
		if status, _, _ := doKeyed(t, http.MethodPut, hs1.URL+"/collections/shops/records/"+k, k, `{"text":"x"}`); status != http.StatusOK {
			t.Fatalf("put %s failed", k)
		}
		want := []string{"key-a", k}
		if i > 0 {
			want[0] = fmt.Sprintf("key-%d", i-1)
		}
		if order, table := dedupState(s1); !slices.Equal(order, want) || len(table) != 2 {
			t.Fatalf("after %s: order %v with %d tracked, want %v", k, order, len(table), want)
		}
	}
	if st := getStats(t, hs1.URL); st.Idempotency.Evictions != 8 {
		t.Fatalf("evictions = %d, want 8", st.Idempotency.Evictions)
	}

	// A crash-restart rebuilds the same table from the log: the evict
	// records replay too, so the restarted table matches — even under a
	// different configured capacity, because replay never re-evicts.
	s2, hs2 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1, DedupCapacity: 64})
	waitReady(t, s2)
	order1, table1 := dedupState(s1)
	order2, table2 := dedupState(s2)
	if !slices.Equal(order1, order2) || !maps.EqualFunc(table1, table2, func(a, b dedupEntry) bool {
		return a.Key == b.Key && a.Seq == b.Seq && a.Type == b.Type && bytes.Equal(a.Data, b.Data)
	}) {
		t.Fatalf("restarted table %v %v, live %v %v", order2, table2, order1, table1)
	}
	if _, replayed, _ := doKeyed(t, http.MethodPut, hs2.URL+"/collections/shops/records/key-5", "key-5", `{"text":"x"}`); !replayed {
		t.Fatal("resident key must replay after restart")
	}
	if _, replayed, _ := doKeyed(t, http.MethodPut, hs2.URL+"/collections/shops/records/key-c", "key-c", `{"text":"x"}`); replayed {
		t.Fatal("journal-evicted key must not replay after restart")
	}
}

// dedupState copies a server's dedup table and its FIFO order.
func dedupState(s *Server) ([]string, map[string]dedupEntry) {
	s.cols.mu.RLock()
	defer s.cols.mu.RUnlock()
	table := make(map[string]dedupEntry, len(s.cols.dedup))
	for k, e := range s.cols.dedup {
		table[k] = *e
	}
	return slices.Clone(s.cols.dedupOrder), table
}

// TestKeylessMutationsBypassDedup: requests without a key take the plain
// path — every call applies, nothing is tracked.
func TestKeylessMutationsBypassDedup(t *testing.T) {
	_, hs := newTestServer(t, Options{BreakerThreshold: -1})
	doKeyed(t, http.MethodPost, hs.URL+"/collections", "", `{"name":"shops"}`)
	url := hs.URL + "/collections/shops/records/r1"
	for i := 0; i < 3; i++ {
		if status, replayed, _ := doKeyed(t, http.MethodPut, url, "", `{"text":"x"}`); status != http.StatusOK || replayed {
			t.Fatalf("keyless put %d = %d replayed=%v", i, status, replayed)
		}
	}
	if st := getStats(t, hs.URL); st.Idempotency.TrackedKeys != 0 || st.Idempotency.Replays != 0 {
		t.Fatalf("keyless mutations leaked into dedup: %+v", st.Idempotency)
	}
}
