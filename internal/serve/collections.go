package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	er "repro"
	"repro/internal/wal"
)

// Durable collections: named record corpora mutated over HTTP and
// journaled through the WAL before acknowledgment. Every mutation is
// validated against in-memory state, appended to the log, applied, and
// acknowledged only once its covering fsync returned — so a SIGKILL at
// any point loses nothing a client was told succeeded. Resolution over a
// collection rides the existing admission/worker/breaker path: an
// override-free resolve catches the collection's resident er.Collection
// up to the current records and re-fuses only the components the
// mutations since the last resolve touched (see resolver.go); a resolve
// with option overrides re-resolves a snapshot of the records in full.

// Collection-mutation errors, mapped onto 404/409 by the handlers.
var (
	// ErrCollectionExists rejects creating a name that is already taken.
	ErrCollectionExists = errors.New("serve: collection already exists")
	// ErrCollectionNotFound rejects operations on an unknown collection.
	ErrCollectionNotFound = errors.New("serve: collection not found")
	// ErrRecordNotFound rejects deleting an unknown record.
	ErrRecordNotFound = errors.New("serve: record not found")
	// ErrRecovering rejects collection operations while the WAL replay
	// that rebuilds them is still running (or has failed).
	ErrRecovering = errors.New("serve: collections are recovering")
)

// WAL record types for collection mutations. The type byte lives outside
// the JSON payload so replay can dispatch without sniffing.
const (
	mutCreate byte = 1
	mutDrop   byte = 2
	mutUpsert byte = 3
	mutDelete byte = 4
	// mutEvict journals a dedup-table eviction (see dedupEntry): the keys
	// it names stop being replayable. Journaling evictions is what makes
	// the dedup table a pure function of the log — replay never consults
	// the *current* capacity configuration, so restarting with a different
	// DedupCapacity cannot silently resurrect or drop tracked keys.
	mutEvict byte = 5
)

// maxIdempotencyKeyBytes bounds the Idempotency-Key header value. Tighter
// than the WAL's own wal.MaxKeyBytes cap: keys appear in journal records,
// snapshots and log lines.
const maxIdempotencyKeyBytes = 128

// mutation is the journaled form of one collection change; fields beyond
// Collection are populated per type. Evict is set only on mutEvict
// records.
type mutation struct {
	Collection string   `json:"collection,omitempty"`
	ID         string   `json:"id,omitempty"`
	Entity     string   `json:"entity,omitempty"`
	Source     int      `json:"source,omitempty"`
	Text       string   `json:"text,omitempty"`
	Evict      []string `json:"evict,omitempty"`
}

// colRecord is one stored record: the er.Record fields, keyed by the
// client-assigned ID.
type colRecord struct {
	Entity string `json:"entity,omitempty"`
	Source int    `json:"source,omitempty"`
	Text   string `json:"text"`
}

// dedupEntry records one applied keyed mutation: the sequence number that
// journaled it and the canonical request bytes, which is what lets a
// retried request be answered with its original outcome (same seq to wait
// on, same deterministic response) — and lets a *different* request
// arriving under the same key be refused instead of silently dropped.
type dedupEntry struct {
	Key  string `json:"key"`
	Seq  uint64 `json:"seq"`
	Type byte   `json:"type"`
	Data []byte `json:"data"`
}

// collection is one named collection: its records plus the state its
// delta resolver catches up from. records, dirty and stale are guarded by
// the store lock; mu serializes resolves and guards resolver.
type collection struct {
	records map[string]colRecord
	// dirty holds the IDs mutated since the last sync. While stale is set
	// nothing is tracked: the next sync starts a fresh resolver from every
	// record instead.
	dirty map[string]struct{}
	stale bool

	mu       sync.Mutex
	resolver *er.Collection
}

// newCollection wraps a record set in a stale entry: its first resolve
// builds the resolver from every record.
func newCollection(records map[string]colRecord) *collection {
	return &collection{records: records, stale: true}
}

// touchLocked marks id mutated. Once the dirty set outgrows the records —
// only deletions can make it — the entry goes stale instead, which keeps
// its memory bounded by the collection size.
func (col *collection) touchLocked(id string) {
	if col.stale {
		return
	}
	if col.dirty == nil {
		col.dirty = make(map[string]struct{})
	}
	col.dirty[id] = struct{}{}
	if len(col.dirty) > len(col.records) {
		col.dirty, col.stale = nil, true
	}
}

// sortedIDs lists the record IDs in ascending order.
func (col *collection) sortedIDs() []string {
	ids := make([]string, 0, len(col.records))
	for id := range col.records {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// colStore is the in-memory state the WAL makes durable: collections of
// records, plus the idempotency dedup table. It is mutated only through
// checkLocked+applyLocked (live path) and apply (replay path), so journal
// order and state order always agree.
type colStore struct {
	mu   sync.RWMutex
	cols map[string]*collection

	// dedup maps idempotency key → the mutation it already applied;
	// dedupOrder is insertion (FIFO) order, the eviction order once the
	// table exceeds dedupCap. Evictions are journaled (mutEvict) so the
	// table replays identically regardless of the restarted server's
	// capacity setting; replay itself never enforces the cap.
	dedup      map[string]*dedupEntry
	dedupOrder []string
	dedupCap   int

	replays   atomic.Int64 // keyed requests answered from the dedup table
	conflicts atomic.Int64 // key reuse with a different request body
	evictions atomic.Int64 // keys evicted from the table
}

func newColStore(dedupCap int) *colStore {
	return &colStore{
		cols:     make(map[string]*collection),
		dedup:    make(map[string]*dedupEntry),
		dedupCap: dedupCap,
	}
}

// rememberLocked inserts one applied keyed mutation into the dedup table.
// It never enforces capacity — the live path journals an eviction first
// (see evictDedupOverflowLocked), and replay applies only what the journal
// says.
func (c *colStore) rememberLocked(key string, seq uint64, typ byte, data []byte) {
	if _, ok := c.dedup[key]; !ok {
		c.dedupOrder = append(c.dedupOrder, key)
	}
	c.dedup[key] = &dedupEntry{Key: key, Seq: seq, Type: typ, Data: data}
}

// forgetLocked removes one key from the dedup table and its FIFO order.
func (c *colStore) forgetLocked(key string) {
	if _, ok := c.dedup[key]; !ok {
		return
	}
	delete(c.dedup, key)
	for i, k := range c.dedupOrder {
		if k == key {
			c.dedupOrder = append(c.dedupOrder[:i], c.dedupOrder[i+1:]...)
			break
		}
	}
}

// checkLocked validates a mutation against current state without applying
// it. The live mutation path runs check → journal → apply under one lock
// hold, so anything the journal records is guaranteed to apply cleanly —
// on the live path and during replay alike.
func (c *colStore) checkLocked(typ byte, m mutation) error {
	switch typ {
	case mutCreate:
		if _, ok := c.cols[m.Collection]; ok {
			return fmt.Errorf("%w: %q", ErrCollectionExists, m.Collection)
		}
	case mutDrop:
		if _, ok := c.cols[m.Collection]; !ok {
			return fmt.Errorf("%w: %q", ErrCollectionNotFound, m.Collection)
		}
	case mutUpsert:
		if _, ok := c.cols[m.Collection]; !ok {
			return fmt.Errorf("%w: %q", ErrCollectionNotFound, m.Collection)
		}
	case mutDelete:
		col, ok := c.cols[m.Collection]
		if !ok {
			return fmt.Errorf("%w: %q", ErrCollectionNotFound, m.Collection)
		}
		if _, ok := col.records[m.ID]; !ok {
			return fmt.Errorf("%w: %q in %q", ErrRecordNotFound, m.ID, m.Collection)
		}
	case mutEvict:
		// Evicting an absent key is a no-op, so an evict record always
		// applies — including after a snapshot already dropped the keys.
	default:
		return fmt.Errorf("%w: unknown mutation type %d", wal.ErrCorrupt, typ)
	}
	return nil
}

// applyLocked applies a checked mutation. It cannot fail: checkLocked ran
// under the same lock hold. Record mutations mark their ID dirty, on the
// live path and during replay alike.
func (c *colStore) applyLocked(typ byte, m mutation) {
	switch typ {
	case mutCreate:
		c.cols[m.Collection] = newCollection(make(map[string]colRecord))
	case mutDrop:
		delete(c.cols, m.Collection)
	case mutUpsert:
		col := c.cols[m.Collection]
		col.records[m.ID] = colRecord{Entity: m.Entity, Source: m.Source, Text: m.Text}
		col.touchLocked(m.ID)
	case mutDelete:
		col := c.cols[m.Collection]
		delete(col.records, m.ID)
		col.touchLocked(m.ID)
	case mutEvict:
		for _, k := range m.Evict {
			c.forgetLocked(k)
		}
	}
}

// apply replays one journaled mutation during recovery. Keyed records
// rebuild the dedup table exactly as the live path populated it, so a
// client retrying across a crash still gets its original outcome; replay
// never enforces the capacity cap — only journaled mutEvict records shrink
// the table.
func (c *colStore) apply(rec wal.Record) error {
	var m mutation
	if err := json.Unmarshal(rec.Data, &m); err != nil {
		return fmt.Errorf("%w: record %d has an undecodable payload: %w", wal.ErrCorrupt, rec.Seq, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.checkLocked(rec.Type, m); err != nil {
		return fmt.Errorf("record %d does not apply: %w", rec.Seq, err)
	}
	c.applyLocked(rec.Type, m)
	if rec.Key != "" && rec.Type != mutEvict {
		c.rememberLocked(rec.Key, rec.Seq, rec.Type, rec.Data)
	}
	return nil
}

// snapshotState is the on-disk snapshot payload. encoding/json writes map
// keys in sorted order, so equal states produce identical snapshots; the
// dedup table rides along in FIFO order so compaction cannot erase the
// replay window. A pre-idempotency snapshot simply has no dedup field and
// restores an empty table.
type snapshotState struct {
	Collections map[string]map[string]colRecord `json:"collections"`
	Dedup       []dedupEntry                    `json:"dedup,omitempty"`
}

// snapshotWithSeq serializes the whole store for wal.WriteSnapshot
// together with the sequence number the serialization covers. Both are
// captured under the store's read lock: the live mutation path journals
// and applies under the write lock, so the payload and the stamp cannot
// diverge — wal.WriteSnapshot refuses a pair that did.
func (s *Server) snapshotWithSeq() ([]byte, uint64, error) {
	s.cols.mu.RLock()
	defer s.cols.mu.RUnlock()
	st := snapshotState{Collections: make(map[string]map[string]colRecord, len(s.cols.cols))}
	for name, col := range s.cols.cols {
		st.Collections[name] = col.records
	}
	for _, key := range s.cols.dedupOrder {
		st.Dedup = append(st.Dedup, *s.cols.dedup[key])
	}
	data, err := json.Marshal(st)
	if err != nil {
		return nil, 0, fmt.Errorf("serve: encoding collections snapshot: %w", err)
	}
	return data, s.walLog.LastSeq(), nil
}

// restoreJSON replaces the store's state with a decoded snapshot.
func (c *colStore) restoreJSON(data []byte) error {
	var st snapshotState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("%w: undecodable snapshot payload: %w", wal.ErrCorrupt, err)
	}
	cols := make(map[string]*collection, len(st.Collections))
	for name, records := range st.Collections {
		if records == nil {
			records = make(map[string]colRecord)
		}
		cols[name] = newCollection(records)
	}
	dedup := make(map[string]*dedupEntry, len(st.Dedup))
	order := make([]string, 0, len(st.Dedup))
	for i := range st.Dedup {
		e := st.Dedup[i]
		if _, ok := dedup[e.Key]; !ok {
			order = append(order, e.Key)
		}
		dedup[e.Key] = &e
	}
	c.mu.Lock()
	c.cols = cols
	c.dedup = dedup
	c.dedupOrder = order
	c.mu.Unlock()
	return nil
}

// counts reports the number of collections and total records.
func (c *colStore) counts() (collections, records int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, col := range c.cols {
		records += len(col.records)
	}
	return len(c.cols), records
}

// dataset snapshots a collection into an er.Dataset, records ordered by
// ID so resolution input — and therefore output — is deterministic for a
// given collection state.
func (c *colStore) dataset(name string) (*er.Dataset, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	col, ok := c.cols[name]
	if !ok {
		return nil, false
	}
	ids := col.sortedIDs()
	records := make([]er.Record, len(ids))
	for i, id := range ids {
		r := col.records[id]
		records[i] = er.Record{Text: r.Text, Source: r.Source, Entity: r.Entity}
	}
	return er.NewDataset("collection:"+name, records), true
}

// list reports every collection name with its record count, sorted by
// name.
func (c *colStore) list() []collectionInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.cols))
	for name := range c.cols {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]collectionInfo, len(names))
	for i, name := range names {
		out[i] = collectionInfo{Name: name, Records: len(c.cols[name].records)}
	}
	return out
}

// get reports one collection's records sorted by ID.
func (c *colStore) get(name string) ([]recordInfo, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	col, ok := c.cols[name]
	if !ok {
		return nil, false
	}
	ids := col.sortedIDs()
	out := make([]recordInfo, len(ids))
	for i, id := range ids {
		r := col.records[id]
		out[i] = recordInfo{ID: id, Entity: r.Entity, Source: r.Source, Text: r.Text}
	}
	return out, true
}

// collectionInfo is the wire form of one collection in GET /collections.
type collectionInfo struct {
	Name    string `json:"name"`
	Records int    `json:"records"`
}

// recordInfo is the wire form of one record in GET /collections/{name}.
type recordInfo struct {
	ID     string `json:"id"`
	Entity string `json:"entity,omitempty"`
	Source int    `json:"source,omitempty"`
	Text   string `json:"text"`
}

// validateCollectionName bounds the namespace: names appear in URLs and
// log lines, so keep them short and unambiguous.
func validateCollectionName(name string) error {
	if name == "" || len(name) > 128 {
		return fmt.Errorf("%w: collection name must be 1..128 characters", er.ErrInvalidOptions)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
		default:
			return fmt.Errorf("%w: collection name may only contain letters, digits, '-', '_', '.'", er.ErrInvalidOptions)
		}
	}
	return nil
}

func validateRecordID(id string) error {
	if id == "" || len(id) > 256 {
		return fmt.Errorf("%w: record id must be 1..256 bytes", er.ErrInvalidOptions)
	}
	return nil
}

// mutOutcome reports how a mutation concluded: the journal sequence that
// covers it and whether it was answered from the dedup table instead of
// being applied again.
type mutOutcome struct {
	seq      uint64
	replayed bool
}

// mutate is the single durable-write path: validate against state,
// journal, apply — all under one store lock hold so WAL order equals
// state order — then wait for the covering fsync outside the lock, which
// is what lets concurrent mutations share one group commit. With no data
// directory configured the store is ephemeral and the journal step is
// skipped (the dedup table still works, within the process lifetime).
//
// A non-empty key is the exactly-once contract: if the key was already
// applied with the same canonical request bytes, nothing is re-applied —
// the caller waits on the original record's durability and gets the
// original outcome back; the same key with different bytes is refused
// (422) rather than guessed at. Concurrent retries of the same logical
// request serialize on the store lock: the first one in journals and
// applies, every later one takes the replay path and waits on the same
// sequence number.
//
// Mutations participate in the drain exactly like jobs: acquire an
// in-flight slot, then re-check draining (Shutdown sets draining before
// it starts waiting, so any slot acquired after that self-rejects here).
// Shutdown's drain therefore waits out every in-flight mutation and
// refuses new ones before finishDurability writes the final snapshot —
// the snapshot can never race an acknowledged write out of the journal.
func (s *Server) mutate(typ byte, m mutation, key string) (mutOutcome, *httpError) {
	var out mutOutcome
	if herr := s.collectionsReady(); herr != nil {
		return out, herr
	}
	release := s.inflight.Acquire()
	defer release()
	if s.draining.Load() {
		s.c.unavailable.Add(1)
		return out, &httpError{status: http.StatusServiceUnavailable, kind: "draining",
			message: ErrDraining.Error(), retryAfter: unavailableRetryAfter}
	}
	data, err := json.Marshal(m)
	if err != nil {
		return out, &httpError{status: http.StatusInternalServerError, kind: "internal",
			message: fmt.Sprintf("serve: encoding mutation: %v", err)}
	}
	s.cols.mu.Lock()
	if key != "" {
		if e, ok := s.cols.dedup[key]; ok {
			if e.Type != typ || !bytes.Equal(e.Data, data) {
				s.cols.conflicts.Add(1)
				s.cols.mu.Unlock()
				return out, &httpError{status: http.StatusUnprocessableEntity, kind: "idempotency_conflict",
					message: fmt.Sprintf("serve: idempotency key %q was already used for a different request", key)}
			}
			seq := e.Seq
			s.cols.replays.Add(1)
			s.cols.mu.Unlock()
			// The original apply may still be racing toward its fsync;
			// the replayed ack must carry the same durability guarantee.
			if s.walLog != nil {
				if err := s.walLog.WaitDurable(s.baseCtx, seq); err != nil {
					return out, &httpError{status: http.StatusServiceUnavailable, kind: "storage_failed",
						message: fmt.Sprintf("serve: awaiting durability: %v", err)}
				}
			}
			out.seq, out.replayed = seq, true
			return out, nil
		}
	}
	if err := s.cols.checkLocked(typ, m); err != nil {
		s.cols.mu.Unlock()
		return out, mutationError(err)
	}
	var seq uint64
	if s.walLog != nil {
		seq, err = s.walLog.AppendKeyed(typ, key, data)
		if err != nil {
			s.cols.mu.Unlock()
			return out, &httpError{status: http.StatusServiceUnavailable, kind: "storage_failed",
				message: fmt.Sprintf("serve: journaling mutation: %v", err)}
		}
	}
	s.cols.applyLocked(typ, m)
	if key != "" {
		s.cols.rememberLocked(key, seq, typ, data)
		s.evictDedupOverflowLocked()
	}
	s.cols.mu.Unlock()
	if s.walLog != nil {
		// The wait runs under the server's lifecycle context, not the
		// request's: the mutation is already applied and journaled, so a
		// client that disconnects mid-wait must not abort the fsync
		// confirmation and leave applied state whose durability nobody
		// observed. The drain kill still bounds the wait.
		if err := s.walLog.WaitDurable(s.baseCtx, seq); err != nil {
			// The mutation is applied in memory but its durability is
			// unconfirmed; the client must not treat it as acknowledged.
			return out, &httpError{status: http.StatusServiceUnavailable, kind: "storage_failed",
				message: fmt.Sprintf("serve: awaiting durability: %v", err)}
		}
	}
	out.seq = seq
	return out, nil
}

// evictDedupOverflowLocked bounds the dedup table: once it exceeds the
// configured capacity the oldest keys are journaled as one mutEvict record
// and then dropped. Journal-before-forget keeps the table a pure function
// of the log; the evict record's own durability is not waited on (losing
// it to a crash merely replays a slightly larger table, never a wrong
// answer). If journaling the eviction fails the keys are kept in memory —
// an over-capacity table is safe, a key the log still replays but the
// table forgot is not.
func (s *Server) evictDedupOverflowLocked() {
	c := s.cols
	over := len(c.dedup) - c.dedupCap
	if over <= 0 {
		return
	}
	keys := append([]string(nil), c.dedupOrder[:over]...)
	if s.walLog != nil {
		data, err := json.Marshal(mutation{Evict: keys})
		if err != nil {
			s.opts.Logf("serve: encoding dedup eviction: %v", err)
			return
		}
		if _, err := s.walLog.Append(mutEvict, data); err != nil {
			s.opts.Logf("serve: dedup eviction not journaled, keys kept in memory: %v", err)
			return
		}
	}
	for _, k := range keys {
		c.forgetLocked(k)
	}
	c.evictions.Add(int64(len(keys)))
}

// collectionsReady gates the collections API on recovery state.
func (s *Server) collectionsReady() *httpError {
	switch s.recoveryPhase() {
	case recoveryFailed:
		return &httpError{status: http.StatusServiceUnavailable, kind: "recovery_failed",
			message: fmt.Sprintf("serve: durable state unavailable: %v", s.recoveryError())}
	case recoveryRunning:
		return &httpError{status: http.StatusServiceUnavailable, kind: "recovering",
			message: ErrRecovering.Error(), retryAfter: unavailableRetryAfter}
	}
	return nil
}

// mutationError maps a store validation failure onto its HTTP form.
func mutationError(err error) *httpError {
	switch {
	case errors.Is(err, ErrCollectionExists):
		return &httpError{status: http.StatusConflict, kind: "exists", message: err.Error()}
	case errors.Is(err, ErrCollectionNotFound), errors.Is(err, ErrRecordNotFound):
		return &httpError{status: http.StatusNotFound, kind: "not_found", message: err.Error()}
	default:
		return &httpError{status: http.StatusBadRequest, kind: "bad_request", message: err.Error()}
	}
}

// idempotencyKey extracts and validates the request's Idempotency-Key
// header. Absent is fine (the mutation is simply not protected against
// retries); present, it must fit the journal's key frame.
func idempotencyKey(r *http.Request) (string, *httpError) {
	key := r.Header.Get("Idempotency-Key")
	if len(key) > maxIdempotencyKeyBytes {
		return "", &httpError{status: http.StatusBadRequest, kind: "invalid_options",
			message: fmt.Sprintf("serve: Idempotency-Key must be at most %d bytes, got %d", maxIdempotencyKeyBytes, len(key))}
	}
	return key, nil
}

// mutateAndRespond runs one mutation through the durable-write path and
// writes its response. The success body is rebuilt deterministically from
// the request, so a replayed request (same key, same canonical bytes —
// mutate enforced that) gets a byte-identical outcome to the original,
// marked with an Idempotency-Replayed header.
func (s *Server) mutateAndRespond(w http.ResponseWriter, r *http.Request, typ byte, m mutation, status int, body any) {
	key, herr := idempotencyKey(r)
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}
	out, herr := s.mutate(typ, m, key)
	if herr != nil {
		writeHTTPError(w, herr)
		return
	}
	if out.replayed {
		w.Header().Set("Idempotency-Replayed", "true")
	}
	writeJSON(w, status, body)
}

// handleCollectionCreate is POST /collections: {"name": "..."}.
func (s *Server) handleCollectionCreate(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name string `json:"name"`
	}
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.opts.MaxUploadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("serve: bad request body: %v", err))
		return
	}
	if err := validateCollectionName(req.Name); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_options", err.Error())
		return
	}
	s.mutateAndRespond(w, r, mutCreate, mutation{Collection: req.Name},
		http.StatusCreated, collectionInfo{Name: req.Name})
}

// handleCollectionList is GET /collections.
func (s *Server) handleCollectionList(w http.ResponseWriter, _ *http.Request) {
	if herr := s.collectionsReady(); herr != nil {
		writeError(w, herr.status, herr.kind, herr.message)
		return
	}
	writeJSON(w, http.StatusOK, map[string][]collectionInfo{"collections": s.cols.list()})
}

// handleCollectionGet is GET /collections/{name}: the record listing.
func (s *Server) handleCollectionGet(w http.ResponseWriter, r *http.Request) {
	if herr := s.collectionsReady(); herr != nil {
		writeError(w, herr.status, herr.kind, herr.message)
		return
	}
	name := r.PathValue("name")
	records, ok := s.cols.get(name)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("%v: %q", ErrCollectionNotFound, name))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name, "records": records})
}

// handleCollectionDrop is DELETE /collections/{name}.
func (s *Server) handleCollectionDrop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mutateAndRespond(w, r, mutDrop, mutation{Collection: name},
		http.StatusOK, map[string]string{"dropped": name})
}

// handleRecordPut is PUT /collections/{name}/records/{id}:
// {"entity": "...", "source": 0, "text": "..."}.
func (s *Server) handleRecordPut(w http.ResponseWriter, r *http.Request) {
	name, id := r.PathValue("name"), r.PathValue("id")
	if err := validateRecordID(id); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_options", err.Error())
		return
	}
	var req colRecord
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.opts.MaxUploadBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("serve: bad request body: %v", err))
		return
	}
	if req.Source < 0 {
		// Sources count from 0, as CSV upload enforces (dataset.Validate).
		writeError(w, http.StatusBadRequest, "invalid_options",
			fmt.Sprintf("%v: record source must be non-negative, got %d", er.ErrInvalidOptions, req.Source))
		return
	}
	m := mutation{Collection: name, ID: id, Entity: req.Entity, Source: req.Source, Text: req.Text}
	s.mutateAndRespond(w, r, mutUpsert, m,
		http.StatusOK, recordInfo{ID: id, Entity: req.Entity, Source: req.Source, Text: req.Text})
}

// handleRecordDelete is DELETE /collections/{name}/records/{id}.
func (s *Server) handleRecordDelete(w http.ResponseWriter, r *http.Request) {
	name, id := r.PathValue("name"), r.PathValue("id")
	s.mutateAndRespond(w, r, mutDelete, mutation{Collection: name, ID: id},
		http.StatusOK, map[string]string{"deleted": id})
}

// handleCollectionResolve is POST /collections/{name}/resolve, through the
// standard admission → queue → worker path. Without option overrides the
// job runs delta-scoped: the collection's resident er.Collection catches up
// to the records mutated since the last resolve and only the
// candidate-graph components they touch are re-fused (per-component fusion
// semantics — see er.Collection; the response carries the work split in
// "delta" and on the "deltafuse" stage). A request with option overrides — or a server with an
// injected Runner — falls back to snapshotting the collection into a
// dataset and re-resolving the full corpus under those options.
func (s *Server) handleCollectionResolve(w http.ResponseWriter, r *http.Request) {
	if herr := s.collectionsReady(); herr != nil {
		writeError(w, herr.status, herr.kind, herr.message)
		return
	}
	name := r.PathValue("name")
	var jo *jobOptions
	if r.ContentLength != 0 {
		var req struct {
			Options *jobOptions `json:"options"`
		}
		dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.opts.MaxUploadBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("serve: bad request body: %v", err))
			return
		}
		jo = req.Options
	}
	d, ok := s.cols.dataset(name)
	if !ok {
		writeError(w, http.StatusNotFound, "not_found", fmt.Sprintf("%v: %q", ErrCollectionNotFound, name))
		return
	}
	opts := jo.apply(er.DefaultOptions())
	class := "collection:" + name
	if opts.UseRSS {
		class += "+rss"
	}
	if err := opts.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid_options", err.Error())
		return
	}
	var run func(ctx context.Context) (*er.Result, error)
	if jo == nil && !s.opts.runnerInjected {
		run = func(ctx context.Context) (*er.Result, error) {
			return s.resolveCollectionDelta(ctx, name)
		}
	}
	s.runResolve(w, r, d, class, opts, run)
}
