package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"repro/internal/textproc"
)

// liveRecord is the test's shadow model of the collection: the plain
// key->record map the Index must stay equivalent to.
type liveRecord struct {
	text   string
	source int
}

// batchView builds the oracle Corpus+Graph from the shadow model the way the
// batch pipeline would: records in ascending external-ID order through
// textproc.BuildCorpus and the serial reference enumeration.
func batchView(t *testing.T, model map[string]liveRecord, cfg Config) (*textproc.Corpus, *Graph, []string, []int) {
	t.Helper()
	ids := make([]string, 0, len(model))
	for id := range model {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	texts := make([]string, len(ids))
	sources := make([]int, len(ids))
	for i, id := range ids {
		texts[i] = model[id].text
		sources[i] = model[id].source
	}
	c := textproc.BuildCorpus(texts, cfg.Corpus)
	g := referenceBuild(c, sources, cfg.Block)
	return c, g, ids, sources
}

// requireCorporaEqual compares two corpora field by field with nil/empty
// slice rows considered equal.
func requireCorporaEqual(t *testing.T, want, got *textproc.Corpus) {
	t.Helper()
	if !reflect.DeepEqual(want.Terms, got.Terms) {
		t.Fatalf("terms mismatch:\nwant %v\ngot  %v", want.Terms, got.Terms)
	}
	if !reflect.DeepEqual(want.DF, got.DF) {
		t.Fatalf("df mismatch:\nwant %v\ngot  %v", want.DF, got.DF)
	}
	if len(want.Docs) != len(got.Docs) {
		t.Fatalf("docs length mismatch: want %d, got %d", len(want.Docs), len(got.Docs))
	}
	for i := range want.Docs {
		if !reflect.DeepEqual(normInt32(want.Docs[i]), normInt32(got.Docs[i])) {
			t.Fatalf("docs[%d] mismatch: want %v, got %v", i, want.Docs[i], got.Docs[i])
		}
		if !reflect.DeepEqual(normInt32(want.Seqs[i]), normInt32(got.Seqs[i])) {
			t.Fatalf("seqs[%d] mismatch: want %v, got %v", i, want.Seqs[i], got.Seqs[i])
		}
	}
}

// TestIncrementalMatchesBatch drives random upsert/delete/replace sequences
// against a mutable Index and, after every small batch of mutations, checks
// that Materialize reproduces the from-scratch batch build bit for bit —
// corpus and candidate graph — and that the survivor rows are exact. Configurations exercise the MaxDFRatio
// threshold shifting with the corpus size, the MaxTermRecords cap, the
// Jaccard floor and cross-source filtering.
func TestIncrementalMatchesBatch(t *testing.T) {
	type scenario struct {
		name string
		cfg  Config
	}
	base := textproc.DefaultTokenizeOptions()
	scenarios := []scenario{
		{"plain", Config{
			Corpus: textproc.CorpusOptions{Tokenize: base},
			Block:  BatchOptions{MinSharedTerms: 1},
		}},
		{"ratio-threshold", Config{
			Corpus: textproc.CorpusOptions{Tokenize: base, MaxDFRatio: 0.25},
			Block:  BatchOptions{MinSharedTerms: 2, MinJaccard: 0.2},
		}},
		{"cross-source-capped", Config{
			Corpus: textproc.CorpusOptions{Tokenize: base, MaxDFRatio: 0.5},
			Block:  BatchOptions{CrossSourceOnly: true, MaxTermRecords: 8, MinSharedTerms: 1, MinJaccard: 0.1},
		}},
		{"stopworded", Config{
			Corpus: textproc.CorpusOptions{Tokenize: base, Stopwords: []string{"w1", "w2", "w3"}},
			Block:  BatchOptions{MinSharedTerms: 1},
		}},
	}
	for si, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + si)))
			ix := New(sc.cfg)
			model := make(map[string]liveRecord)
			vocab := 14 + rng.Intn(20)
			randomText := func() string {
				k := 2 + rng.Intn(7)
				s := ""
				for i := 0; i < k; i++ {
					if i > 0 {
						s += " "
					}
					s += fmt.Sprintf("w%d", rng.Intn(vocab))
				}
				return s
			}
			ops := 0
			for step := 0; step < 60; step++ {
				// A small burst of mutations, then a full equivalence check.
				burst := 1 + rng.Intn(4)
				for b := 0; b < burst; b++ {
					ops++
					switch {
					case len(model) > 4 && rng.Intn(4) == 0: // delete
						ids := make([]string, 0, len(model))
						for id := range model {
							ids = append(ids, id)
						}
						sort.Strings(ids)
						id := ids[rng.Intn(len(ids))]
						delete(model, id)
						if _, ok := ix.Delete(id); !ok {
							t.Fatalf("step %d: delete %q reported missing", step, id)
						}
					case len(model) > 2 && rng.Intn(3) == 0: // replace
						ids := make([]string, 0, len(model))
						for id := range model {
							ids = append(ids, id)
						}
						sort.Strings(ids)
						id := ids[rng.Intn(len(ids))]
						rec := liveRecord{text: randomText(), source: rng.Intn(2)}
						model[id] = rec
						ix.Upsert(id, rec.text, rec.source)
					default: // insert
						id := fmt.Sprintf("r%04d", rng.Intn(400))
						rec := liveRecord{text: randomText(), source: rng.Intn(2)}
						model[id] = rec
						ix.Upsert(id, rec.text, rec.source)
					}
				}
				if ix.Len() != len(model) {
					t.Fatalf("step %d: live count %d, model has %d", step, ix.Len(), len(model))
				}
				v := ix.Materialize()
				wantC, wantG, wantIDs, wantSrc := batchView(t, model, sc.cfg)
				if !reflect.DeepEqual(wantIDs, v.IDs) {
					t.Fatalf("step %d: id order mismatch:\nwant %v\ngot  %v", step, wantIDs, v.IDs)
				}
				if !reflect.DeepEqual(wantSrc, v.Sources) {
					t.Fatalf("step %d: sources mismatch", step)
				}
				requireCorporaEqual(t, wantC, v.Corpus)
				requireGraphsEqual(t, wantG, v.Graph)
				requireExactRows(t, ix, v, step)
			}
			if ops < 60 {
				t.Fatalf("scenario exercised only %d mutations", ops)
			}
		})
	}
}

// TestIndexDeltaReportsPairs pins the Delta bookkeeping on a hand-built
// example: two records that come to share two terms become a candidate pair,
// and deleting one endpoint removes it.
func TestIndexDeltaReportsPairs(t *testing.T) {
	cfg := Config{
		Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
		Block:  BatchOptions{MinSharedTerms: 2},
	}
	ix := New(cfg)
	ix.Upsert("a", "alpha beta gamma", 0)
	d := ix.Upsert("b", "alpha beta delta", 1)
	if len(d.AddedPairs) != 1 || d.AddedPairs[0] != [2]string{"a", "b"} {
		t.Fatalf("expected pair {a b} added, got %+v", d)
	}
	d = ix.Upsert("b", "epsilon zeta", 1)
	if len(d.RemovedPairs) != 1 || d.RemovedPairs[0] != [2]string{"a", "b"} {
		t.Fatalf("expected pair {a b} removed on replace, got %+v", d)
	}
	d = ix.Upsert("b", "alpha beta", 1)
	if len(d.AddedPairs) != 1 {
		t.Fatalf("expected pair re-added, got %+v", d)
	}
	d, ok := ix.Delete("a")
	if !ok || len(d.RemovedPairs) != 1 || d.RemovedPairs[0] != [2]string{"a", "b"} {
		t.Fatalf("expected delete to remove pair {a b}, got %+v ok=%v", d, ok)
	}
	if ix.Len() != 1 {
		t.Fatalf("expected 1 live record, got %d", ix.Len())
	}
	// The survivor table must now be empty.
	v := ix.Materialize()
	if v.Graph.NumPairs() != 0 {
		t.Fatalf("expected empty candidate set, got %d pairs", v.Graph.NumPairs())
	}
}

// TestIndexTouchedPositions checks that Pending reports the records and
// components touched since the last Commit, and that only Commit drains
// them.
func TestIndexTouchedPositions(t *testing.T) {
	cfg := Config{
		Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
		Block:  BatchOptions{MinSharedTerms: 1},
	}
	ix := New(cfg)
	ix.Upsert("a", "alpha beta", 0)
	ix.Upsert("b", "alpha beta", 0)
	ix.Upsert("c", "omega psi", 0)
	commit := func() *Pending {
		t.Helper()
		pd := ix.Pending()
		pd.Materialize()
		if !ix.Commit(pd) {
			t.Fatal("commit of a fresh materialized Pending refused")
		}
		return pd
	}
	pd := ix.Pending()
	if pd.Touched != 3 || len(pd.Comps) != 1 || !reflect.DeepEqual(pd.Comps[0].Records, []int32{0, 1}) {
		t.Fatalf("initial build should touch all records and the {a b} component, got %d touched, %+v", pd.Touched, pd.Comps)
	}
	// An uncommitted Pending drains nothing.
	if pd = commit(); pd.Touched != 3 || pd.Components != 1 || pd.NumPairs != 1 {
		t.Fatalf("uncommitted Pending lost the touched set: %+v", pd)
	}
	// No mutations: nothing touched, and the one pair is the committed one.
	var from []int32
	if pd = commit(); pd.Touched != 0 || len(pd.Comps) != 0 || pd.Components != 1 {
		t.Fatalf("expected no touched records, got %+v", pd)
	}
	pd = ix.Pending()
	pd.Materialize()
	pd.Each(func(_ Pair, f int32) { from = append(from, f) })
	if !reflect.DeepEqual(from, []int32{0}) {
		t.Fatalf("expected no touched records, got %+v", pd)
	}
	// Mutating c touches only c (it shares no terms with a/b), and c is in
	// no component.
	ix.Upsert("c", "omega chi", 0)
	if pd = commit(); pd.Touched != 1 || len(pd.Comps) != 0 || pd.Components != 1 {
		t.Fatalf("expected only c touched, got %+v", pd)
	}
	// A Pending that another Commit overtook is not committed.
	pd = ix.Pending()
	pd.Materialize()
	commit()
	if ix.Commit(pd) {
		t.Fatal("commit of a Pending made before the last Commit accepted")
	}
	// A Pending that a mutation overtook is not committed.
	pd = ix.Pending()
	pd.Materialize()
	ix.Upsert("c", "omega beta alpha", 0)
	if ix.Commit(pd) {
		t.Fatal("commit of a stale Pending accepted")
	}
	if pd = commit(); pd.Touched != 3 || len(pd.Comps) != 1 || len(pd.Comps[0].Records) != 3 || len(pd.Dissolved) != 1 {
		t.Fatalf("expected a, b, c touched and one component re-formed, got %+v", pd)
	}
}

// TestLoadBytesLinear loads 4k and then 16k fresh records and requires the
// bytes allocated to grow about linearly: at most 5× for 4× the records.
// The vocabulary grows with the corpus, so a record's candidate row stays
// the same size. Per-record scratch that reallocated to the exact handle
// space on every new handle made a load quadratic (about 16× here).
func TestLoadBytesLinear(t *testing.T) {
	cfg := Config{
		Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: 0.5},
		Block:  BatchOptions{MinSharedTerms: 2, MinJaccard: 0.1},
	}
	load := func(n int) uint64 {
		rng := rand.New(rand.NewSource(1))
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ix := New(cfg)
		for i := 0; i < n; i++ {
			e := i / 2
			ix.Upsert(fmt.Sprintf("r%06d", i), fmt.Sprintf("brand%d model%d w%d w%d",
				e, e, rng.Intn(n), rng.Intn(n)), 0)
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(ix)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := load(4000), load(16000)
	t.Logf("bytes allocated by a load: %d for 4k records, %d for 16k (%.1f×)", small, large, float64(large)/float64(small))
	if large > 5*small {
		t.Fatalf("a 16k load allocates %.1f× a 4k load's bytes, want at most 5×", float64(large)/float64(small))
	}
}
