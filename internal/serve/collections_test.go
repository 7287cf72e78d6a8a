package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	er "repro"
	"repro/internal/wal"
)

// doJSON issues one request against the collections API and returns the
// status plus the decoded body (always a JSON object on this surface).
func doJSON(t *testing.T, method, url, body string) (int, map[string]any) {
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
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decode body: %v", method, url, err)
	}
	return resp.StatusCode, out
}

// seedCollection creates a collection and upserts a small corpus with two
// obvious duplicate pairs, returning the number of records written.
func seedCollection(t *testing.T, base, name string) int {
	t.Helper()
	if status, body := doJSON(t, http.MethodPost, base+"/collections", fmt.Sprintf(`{"name":%q}`, name)); status != http.StatusCreated {
		t.Fatalf("create collection = %d (%v), want 201", status, body)
	}
	records := []string{
		`{"entity":"e1","source":0,"text":"joe's pizza 123 main st new york"}`,
		`{"entity":"e1","source":1,"text":"joes pizza 123 main street new york ny"}`,
		`{"entity":"e2","source":0,"text":"blue bottle coffee 300 webster st oakland"}`,
		`{"entity":"e2","source":1,"text":"blue bottle coffee co 300 webster street oakland ca"}`,
		`{"entity":"e3","source":0,"text":"golden gate hardware supply san francisco"}`,
		`{"entity":"e4","source":1,"text":"mission chinese food 2234 mission st"}`,
	}
	for i, rec := range records {
		url := fmt.Sprintf("%s/collections/%s/records/r%02d", base, name, i)
		if status, body := doJSON(t, http.MethodPut, url, rec); status != http.StatusOK {
			t.Fatalf("upsert %d = %d (%v), want 200", i, status, body)
		}
	}
	return len(records)
}

// resolveCollection runs POST /collections/{name}/resolve with pair
// listings enabled and returns the decoded job response.
func resolveCollection(t *testing.T, base, name string) (int, jobResponse) {
	t.Helper()
	resp, err := http.Post(base+"/collections/"+name+"/resolve?pairs=1", "application/json",
		strings.NewReader(`{"options":{"seed":1}}`))
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

// TestDurabilityOptionsValidate pins the validation contract for the
// durability knobs: every rejection wraps er.ErrInvalidOptions and
// surfaces through New before any goroutine starts.
func TestDurabilityOptionsValidate(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		opts    Options
		wantErr bool
	}{
		{"zero value", Options{}, false},
		{"data dir alone", Options{DataDir: dir}, false},
		{"full durable config", Options{DataDir: dir, FsyncInterval: time.Millisecond, MaxSegmentBytes: 1 << 20}, false},
		{"negative fsync interval", Options{DataDir: dir, FsyncInterval: -time.Second}, true},
		{"negative segment bytes", Options{DataDir: dir, MaxSegmentBytes: -1}, true},
		{"fsync interval without data dir", Options{FsyncInterval: time.Millisecond}, true},
		{"segment bytes without data dir", Options{MaxSegmentBytes: 1 << 20}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.opts.Validate()
			if !tc.wantErr {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, er.ErrInvalidOptions) {
				t.Fatalf("Validate() = %v, want ErrInvalidOptions", err)
			}
			if _, nerr := New(tc.opts); !errors.Is(nerr, er.ErrInvalidOptions) {
				t.Fatalf("New() = %v, want ErrInvalidOptions", nerr)
			}
		})
	}
}

// TestCollectionsCRUDEphemeral exercises the whole collections surface
// with no DataDir: the store works in memory and every error path maps to
// its documented status code.
func TestCollectionsCRUDEphemeral(t *testing.T) {
	s, hs := newTestServer(t, Options{BreakerThreshold: -1})
	n := seedCollection(t, hs.URL, "shops")

	if status, _ := doJSON(t, http.MethodPost, hs.URL+"/collections", `{"name":"shops"}`); status != http.StatusConflict {
		t.Fatalf("duplicate create = %d, want 409", status)
	}
	if status, _ := doJSON(t, http.MethodPost, hs.URL+"/collections", `{"name":"bad name!"}`); status != http.StatusBadRequest {
		t.Fatalf("invalid name = %d, want 400", status)
	}
	if status, _ := doJSON(t, http.MethodPut, hs.URL+"/collections/missing/records/r1", `{"text":"x"}`); status != http.StatusNotFound {
		t.Fatalf("upsert into missing collection = %d, want 404", status)
	}
	if status, _ := doJSON(t, http.MethodDelete, hs.URL+"/collections/shops/records/nope", ""); status != http.StatusNotFound {
		t.Fatalf("delete missing record = %d, want 404", status)
	}

	status, body := doJSON(t, http.MethodGet, hs.URL+"/collections/shops", "")
	if status != http.StatusOK {
		t.Fatalf("get collection = %d, want 200", status)
	}
	if got := len(body["records"].([]any)); got != n {
		t.Fatalf("collection holds %d records, want %d", got, n)
	}

	if status, _ := doJSON(t, http.MethodDelete, hs.URL+"/collections/shops/records/r00", ""); status != http.StatusOK {
		t.Fatalf("delete record: status %d, want 200", status)
	}
	if cols, recs := s.cols.counts(); cols != 1 || recs != n-1 {
		t.Fatalf("counts = %d/%d, want 1/%d", cols, recs, n-1)
	}
	st := getStats(t, hs.URL)
	if st.Collections.Collections != 1 || st.Collections.Records != n-1 {
		t.Fatalf("stats collections = %+v, want 1 collection, %d records", st.Collections, n-1)
	}
	if st.Durability != nil {
		t.Fatalf("ephemeral server reports durability stats: %+v", st.Durability)
	}

	if status, _ := doJSON(t, http.MethodDelete, hs.URL+"/collections/shops", ""); status != http.StatusOK {
		t.Fatalf("drop = %d, want 200", status)
	}
	if status, _ := doJSON(t, http.MethodGet, hs.URL+"/collections/shops", ""); status != http.StatusNotFound {
		t.Fatalf("get after drop = %d, want 404", status)
	}
	if status, _ := doJSON(t, http.MethodDelete, hs.URL+"/collections/shops", ""); status != http.StatusNotFound {
		t.Fatalf("double drop = %d, want 404", status)
	}
}

// TestRecordPutRejectsNegativeSource pins upsert validation: sources count
// from 0, as CSV upload enforces, so a negative source is refused with 400
// before it is journaled and never reaches the collection.
func TestRecordPutRejectsNegativeSource(t *testing.T) {
	s, hs := newTestServer(t, Options{DataDir: t.TempDir(), BreakerThreshold: -1})
	waitReady(t, s)
	seedCollection(t, hs.URL, "shops")
	appends := getStats(t, hs.URL).Durability.WAL.Appends

	status, body := doJSON(t, http.MethodPut, hs.URL+"/collections/shops/records/neg", `{"source":-1,"text":"joe's pizza 123 main st"}`)
	if status != http.StatusBadRequest || body["kind"] != "invalid_options" {
		t.Fatalf("negative source = %d %v, want 400 invalid_options", status, body)
	}
	if got := getStats(t, hs.URL).Durability.WAL.Appends; got != appends {
		t.Fatalf("journal appends %d -> %d, want the rejected upsert unjournaled", appends, got)
	}
	records, _ := s.cols.get("shops")
	for _, r := range records {
		if r.ID == "neg" {
			t.Fatalf("rejected record stored: %+v", r)
		}
	}
}

// TestCollectionResolve runs a real resolution over a collection corpus
// through the standard admission path.
func TestCollectionResolve(t *testing.T) {
	_, hs := newTestServer(t, Options{BreakerThreshold: -1})
	n := seedCollection(t, hs.URL, "shops")

	status, jr := resolveCollection(t, hs.URL, "shops")
	if status != http.StatusOK || jr.State != JobCompleted {
		t.Fatalf("resolve = %d/%s (%s), want 200/completed", status, jr.State, jr.Error)
	}
	if jr.Records != n {
		t.Fatalf("resolved %d records, want %d", jr.Records, n)
	}
	if jr.Dataset != "collection:shops" || jr.Class != "collection:shops" {
		t.Fatalf("dataset/class = %q/%q, want collection:shops", jr.Dataset, jr.Class)
	}
	if jr.Delta != nil {
		t.Fatalf("option-override resolve took the delta path: %+v", *jr.Delta)
	}

	// The override-free resolve runs delta-scoped and reports the same
	// dataset name and the live record count.
	if status, _ := doJSON(t, http.MethodDelete, hs.URL+"/collections/shops/records/r05", ""); status != http.StatusOK {
		t.Fatalf("delete r05 = %d, want 200", status)
	}
	status, jr = resolveCollectionDeltaJSON(t, hs.URL, "shops")
	if status != http.StatusOK || jr.State != JobCompleted {
		t.Fatalf("delta resolve = %d/%s (%s), want 200/completed", status, jr.State, jr.Error)
	}
	if jr.Delta == nil {
		t.Fatal("override-free resolve did not take the delta path")
	}
	if jr.Dataset != "collection:shops" || jr.Records != n-1 {
		t.Fatalf("delta resolve dataset/records = %q/%d, want collection:shops/%d", jr.Dataset, jr.Records, n-1)
	}

	resp, err := http.Post(hs.URL+"/collections/missing/resolve", "application/json", nil)
	if err != nil {
		t.Fatalf("resolve missing: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("resolve missing collection = %d, want 404", resp.StatusCode)
	}

	resp, err = http.Post(hs.URL+"/collections/shops/resolve", "application/json",
		strings.NewReader(`{"options":{"eta":-5}}`))
	if err != nil {
		t.Fatalf("resolve bad options: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("resolve with invalid options = %d, want 400", resp.StatusCode)
	}
}

// waitReady polls a durable server until recovery finishes, failing the
// test if it lands anywhere but ready.
func waitReady(t *testing.T, s *Server) {
	t.Helper()
	waitFor(t, func() bool { return s.recoveryPhase() != recoveryRunning })
	if phase := s.recoveryPhase(); phase != recoveryReady {
		t.Fatalf("recovery phase = %s, want ready (err: %v)", recoveryPhaseName(phase), s.recoveryError())
	}
}

// TestDurableRestartAfterShutdown is the issue's acceptance path: mutate
// a durable server, drain it (which writes a final snapshot), start a
// fresh server on the same directory and demand byte-identical resolve
// results.
func TestDurableRestartAfterShutdown(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{DataDir: dir, BreakerThreshold: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs1 := httptest.NewServer(s1.Handler())
	waitReady(t, s1)

	seedCollection(t, hs1.URL, "shops")
	status, before := resolveCollection(t, hs1.URL, "shops")
	if status != http.StatusOK || before.State != JobCompleted {
		t.Fatalf("pre-restart resolve = %d/%s (%s)", status, before.State, before.Error)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	hs1.Close()

	s2, hs2 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
	waitReady(t, s2)

	st := getStats(t, hs2.URL)
	if st.Durability == nil || st.Durability.Phase != "ready" {
		t.Fatalf("durability stats after restart = %+v, want phase ready", st.Durability)
	}
	if !st.Durability.SnapshotRestored {
		t.Fatal("clean shutdown wrote a final snapshot; restart should restore from it")
	}
	if st.Durability.ReplayedRecords != 0 {
		t.Fatalf("replayed %d records past the final snapshot, want 0", st.Durability.ReplayedRecords)
	}
	if st.Collections.Collections != 1 || st.Collections.Records != 6 {
		t.Fatalf("restored state = %+v, want 1 collection with 6 records", st.Collections)
	}

	status, after := resolveCollection(t, hs2.URL, "shops")
	if status != http.StatusOK || after.State != JobCompleted {
		t.Fatalf("post-restart resolve = %d/%s (%s)", status, after.State, after.Error)
	}
	assertSameResolution(t, before, after)
}

// TestDurableRestartWithoutShutdown covers the other recovery path: the
// first server is simply abandoned (no drain, no final snapshot), so the
// second must rebuild state by replaying the journal tail. Every mutation
// was fsynced before its ack, so nothing may be missing.
func TestDurableRestartWithoutShutdown(t *testing.T) {
	dir := t.TempDir()
	s1, hs1 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
	waitReady(t, s1)
	n := seedCollection(t, hs1.URL, "shops")
	status, before := resolveCollection(t, hs1.URL, "shops")
	if status != http.StatusOK {
		t.Fatalf("pre-restart resolve = %d (%s)", status, before.Error)
	}

	// No Shutdown: open a second server over the same directory, exactly
	// what a post-SIGKILL restart sees. Acked mutations are on disk.
	s2, hs2 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
	waitReady(t, s2)

	st := getStats(t, hs2.URL)
	if st.Durability == nil || st.Durability.SnapshotRestored {
		t.Fatalf("durability stats = %+v, want replay without snapshot", st.Durability)
	}
	if want := int64(n + 1); st.Durability.ReplayedRecords != want { // +1 create
		t.Fatalf("replayed %d records, want %d", st.Durability.ReplayedRecords, want)
	}
	if st.Collections.Collections != 1 || st.Collections.Records != n {
		t.Fatalf("recovered state = %+v, want 1 collection with %d records", st.Collections, n)
	}

	status, after := resolveCollection(t, hs2.URL, "shops")
	if status != http.StatusOK {
		t.Fatalf("post-restart resolve = %d (%s)", status, after.Error)
	}
	assertSameResolution(t, before, after)
}

// assertSameResolution demands two resolve responses describe the same
// outcome, down to individual match pairs.
func assertSameResolution(t *testing.T, a, b jobResponse) {
	t.Helper()
	if a.Records != b.Records || a.Matches != b.Matches || a.Clusters != b.Clusters || a.Converged != b.Converged {
		t.Fatalf("resolutions differ: records %d/%d, matches %d/%d, clusters %d/%d, converged %v/%v",
			a.Records, b.Records, a.Matches, b.Matches, a.Clusters, b.Clusters, a.Converged, b.Converged)
	}
	ap, _ := json.Marshal(a.Pairs)
	bp, _ := json.Marshal(b.Pairs)
	if !bytes.Equal(ap, bp) {
		t.Fatalf("match pairs differ:\n  before: %s\n  after:  %s", ap, bp)
	}
}

// gateFS delays segment creation until released, pinning a server in the
// recovering phase for as long as a test needs to observe it.
type gateFS struct {
	wal.FS
	gate chan struct{}
}

func (g gateFS) Create(path string) (wal.File, error) {
	<-g.gate
	return g.FS.Create(path)
}

// TestReadyzReportsRecovery holds recovery open with a gated FS and walks
// the full readiness arc: 503 recovering (mutations rejected with the
// same kind), then 200 ready once the replay completes.
func TestReadyzReportsRecovery(t *testing.T) {
	gate := make(chan struct{})
	s, hs := newTestServer(t, Options{
		DataDir:          t.TempDir(),
		WALFS:            gateFS{FS: wal.OSFS{}, gate: gate},
		BreakerThreshold: -1,
	})

	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || body["status"] != "recovering" {
		t.Fatalf("readyz during recovery = %d %v, want 503 recovering", resp.StatusCode, body)
	}
	if _, ok := body["replayed_records"]; !ok {
		t.Fatal("recovering readyz must report replay progress")
	}
	if status, mut := doJSON(t, http.MethodPost, hs.URL+"/collections", `{"name":"early"}`); status != http.StatusServiceUnavailable || mut["kind"] != "recovering" {
		t.Fatalf("mutation during recovery = %d %v, want 503 recovering", status, mut)
	}

	close(gate)
	waitReady(t, s)
	resp, err = http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery = %d, want 200", resp.StatusCode)
	}
	if status, _ := doJSON(t, http.MethodPost, hs.URL+"/collections", `{"name":"late"}`); status != http.StatusCreated {
		t.Fatalf("mutation after recovery = %d, want 201", status)
	}
}

// TestRecoveryFailureIsTypedAndServed plants a journal whose record
// cannot legally apply (an upsert into a collection that was never
// created). Startup must not panic and must not serve half-recovered
// state: /readyz and every collection endpoint answer 503
// recovery_failed, while the resolve surface keeps working.
func TestRecoveryFailureIsTypedAndServed(t *testing.T) {
	dir := t.TempDir()
	l, _, err := wal.Open(context.Background(), wal.Options{Dir: dir})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if _, err := l.AppendDurable(context.Background(), 3, []byte(`{"collection":"ghost","id":"r1","text":"x"}`)); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s, hs := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
	waitFor(t, func() bool { return s.recoveryPhase() != recoveryRunning })
	if s.recoveryPhase() != recoveryFailed {
		t.Fatalf("recovery phase = %s, want failed", recoveryPhaseName(s.recoveryPhase()))
	}
	if !errors.Is(s.recoveryError(), ErrCollectionNotFound) {
		t.Fatalf("recovery error = %v, want ErrCollectionNotFound", s.recoveryError())
	}

	resp, err := http.Get(hs.URL + "/readyz")
	if err != nil {
		t.Fatalf("GET /readyz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz after failed recovery = %d, want 503", resp.StatusCode)
	}
	if status, body := doJSON(t, http.MethodPost, hs.URL+"/collections", `{"name":"c"}`); status != http.StatusServiceUnavailable || body["kind"] != "recovery_failed" {
		t.Fatalf("mutation after failed recovery = %d %v, want 503 recovery_failed", status, body)
	}
	st := getStats(t, hs.URL)
	if st.Durability == nil || st.Durability.Phase != "failed" || st.Durability.Error == "" {
		t.Fatalf("durability stats = %+v, want failed phase with error", st.Durability)
	}

	// The resolution surface is independent of the durable store and must
	// still serve.
	if status, jr := postJSON(t, hs.URL, `{"replica":"restaurant","scale":0.05}`); status != http.StatusOK {
		t.Fatalf("replica resolve with failed recovery = %d (%s), want 200", status, jr.Error)
	}
}

// TestDurableMutationsSurviveInWAL goes below the HTTP surface: every
// acknowledged mutation must be readable back from the journal directory
// by a plain wal.Open, proving acks really do mean "on disk".
func TestDurableMutationsSurviveInWAL(t *testing.T) {
	dir := t.TempDir()
	s, hs := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
	waitReady(t, s)
	n := seedCollection(t, hs.URL, "shops")
	if status, _ := doJSON(t, http.MethodDelete, hs.URL+"/collections/shops/records/r00", ""); status != http.StatusOK {
		t.Fatalf("delete: status %d", status)
	}

	store := newColStore(DefaultDedupCapacity)
	l, rec, err := wal.Open(context.Background(), wal.Options{
		Dir:        dir,
		OnSnapshot: func(_ uint64, data []byte) error { return store.restoreJSON(data) },
		OnRecord:   store.apply,
	})
	if err != nil {
		t.Fatalf("independent wal.Open: %v", err)
	}
	defer l.Close()
	if want := uint64(n + 2); rec.LastSeq != want { // create + upserts + delete
		t.Fatalf("journal LastSeq = %d, want %d", rec.LastSeq, want)
	}
	if cols, recs := store.counts(); cols != 1 || recs != n-1 {
		t.Fatalf("replayed store = %d/%d, want 1/%d", cols, recs, n-1)
	}
}

// TestDrainRejectsMutations pins the fix for the snapshot-vs-mutation
// race: once Shutdown has set draining, a collection mutation arriving
// through a still-open HTTP listener is refused with 503 instead of
// appending past the final snapshot's covered sequence — an append there
// would be compacted away and silently lost on the next startup.
func TestDrainRejectsMutations(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Options{DataDir: dir, BreakerThreshold: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	waitReady(t, s)
	seedCollection(t, hs.URL, "shops")

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The job server is drained but the HTTP server still answers — the
	// exact window cmd/erserve has between srv.Shutdown and hs.Shutdown.
	status, body := doJSON(t, http.MethodPut, hs.URL+"/collections/shops/records/late", `{"text":"too late"}`)
	if status != http.StatusServiceUnavailable || body["kind"] != "draining" {
		t.Fatalf("mutation during drain = %d (%v), want 503 draining", status, body)
	}

	// The refused mutation is nowhere: the restarted server restores the
	// final snapshot with exactly the pre-drain corpus.
	s2, hs2 := newTestServer(t, Options{DataDir: dir, BreakerThreshold: -1})
	waitReady(t, s2)
	st := getStats(t, hs2.URL)
	if !st.Durability.SnapshotRestored || st.Durability.ReplayedRecords != 0 {
		t.Fatalf("restart durability = %+v, want snapshot restore with no tail", st.Durability)
	}
	if st.Collections.Collections != 1 || st.Collections.Records != 6 {
		t.Fatalf("restored state = %+v, want the 6 pre-drain records", st.Collections)
	}
	if _, ok := s2.cols.get("shops"); !ok {
		t.Fatal("collection missing after restart")
	}
}
