package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/textproc"
)

// bruteBandTerms is the unguarded O(V) band scan: every non-stopped term
// whose df lies in (lo, hi], in term-ID order.
func bruteBandTerms(ix *Index, lo, hi int32) []int32 {
	var out []int32
	for t, f := range ix.df {
		if f > lo && f <= hi && !ix.stopped[t] {
			out = append(out, int32(t))
		}
	}
	return out
}

// requireHistogram recounts the df histogram from df and compares it with
// the one the index maintains incrementally.
func requireHistogram(t *testing.T, ix *Index, step int) {
	t.Helper()
	want := make([]int32, len(ix.nAtDF))
	for term, f := range ix.df {
		if f == 0 || ix.stopped[term] {
			continue
		}
		if int(f) >= len(want) {
			t.Fatalf("step %d: term %q has df %d past the histogram's %d entries", step, ix.surfaces[term], f, len(want))
		}
		want[f]++
	}
	if !reflect.DeepEqual(want, ix.nAtDF) {
		t.Fatalf("step %d: df histogram drifted:\nrecount %v\nindex   %v", step, want, ix.nAtDF)
	}
}

// TestBandGuardMatchesScan drives random inserts, replacements and deletes
// whose texts hold "hot" terms kept at the MaxDFRatio threshold: before
// each insert, hot term k joins the record exactly when its df is below
// the next threshold plus k−1, so the three hot terms sit one below, on
// and one above the threshold as it moves. After every mutation the df
// histogram must equal a recount from df; the guarded band scan must
// yield exactly the brute-force scan's terms for the band the mutation
// moved, for the bands the next insert and delete would move, and for
// random bands; and Materialize must equal the batch build.
func TestBandGuardMatchesScan(t *testing.T) {
	base := textproc.DefaultTokenizeOptions()
	for _, sc := range []struct {
		name string
		cfg  Config
	}{
		{"ratio-quarter", Config{
			Corpus: textproc.CorpusOptions{Tokenize: base, MaxDFRatio: 0.25},
			Block:  BatchOptions{MinSharedTerms: 2, MinJaccard: 0.2},
		}},
		{"ratio-default-stopworded", Config{
			Corpus: textproc.CorpusOptions{Tokenize: base, MaxDFRatio: 0.12, Stopwords: []string{"hot1", "w3"}},
			Block:  BatchOptions{MinSharedTerms: 1, MaxTermRecords: 30},
		}},
	} {
		t.Run(sc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			ix := New(sc.cfg)
			model := make(map[string]liveRecord)
			var ids []string // live IDs, kept sorted
			dfOf := func(s string) int32 {
				if iid, ok := ix.vocab[s]; ok {
					return ix.df[iid]
				}
				return 0
			}
			newText := func() string {
				next := ix.maxKeptDFAt(ix.Len() + 1)
				s := fmt.Sprintf("w%d w%d w%d", rng.Intn(40), rng.Intn(40), rng.Intn(200))
				for k := int32(0); k < 3; k++ {
					if hot := fmt.Sprintf("hot%d", k); dfOf(hot) < next+k-1 {
						s += " " + hot
					}
				}
				return s
			}
			scans, skips := 0, 0
			checkBand := func(step int, lo, hi int32) {
				t.Helper()
				if lo > hi {
					lo, hi = hi, lo
				}
				want := bruteBandTerms(ix, lo, hi)
				before := ix.bandVisited
				got := ix.bandTerms(lo, hi)
				if ix.bandVisited > before {
					scans++
				} else {
					skips++
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("step %d: band (%d, %d]: guarded scan found %v, brute force %v", step, lo, hi, got, want)
				}
			}
			for step := 0; step < 400; step++ {
				maxBefore := ix.maxKeptDF()
				switch {
				case len(ids) > 6 && rng.Intn(4) == 0:
					i := rng.Intn(len(ids))
					id := ids[i]
					ids = append(ids[:i], ids[i+1:]...)
					delete(model, id)
					if _, ok := ix.Delete(id); !ok {
						t.Fatalf("step %d: delete %q reported missing", step, id)
					}
				case len(ids) > 2 && rng.Intn(4) == 0:
					id := ids[rng.Intn(len(ids))]
					rec := liveRecord{text: newText(), source: rng.Intn(2)}
					model[id] = rec
					ix.Upsert(id, rec.text, rec.source)
				default:
					id := fmt.Sprintf("r%04d", step)
					rec := liveRecord{text: newText(), source: rng.Intn(2)}
					model[id] = rec
					ids = append(ids, id)
					sort.Strings(ids)
					ix.Upsert(id, rec.text, rec.source)
				}
				requireHistogram(t, ix, step)
				n := ix.Len()
				checkBand(step, maxBefore, ix.maxKeptDF())
				checkBand(step, ix.maxKeptDF(), ix.maxKeptDFAt(n+1))
				checkBand(step, ix.maxKeptDF(), ix.maxKeptDFAt(n-1))
				lo := rng.Int31n(int32(n) + 2)
				checkBand(step, lo, lo+rng.Int31n(4))

				v := ix.Materialize()
				wantC, wantG, _, _ := batchView(t, model, sc.cfg)
				requireCorporaEqual(t, wantC, v.Corpus)
				requireGraphsEqual(t, wantG, v.Graph)
			}
			// Both branches of the guard must have run, or the scenario
			// did not exercise it.
			if scans == 0 || skips == 0 {
				t.Fatalf("guard exercised poorly: %d scans, %d skips", scans, skips)
			}
			t.Logf("%d band checks scanned, %d skipped", scans, skips)
		})
	}
}

// TestLoadBandScanLinear loads 4k and then 16k fresh records under the
// default MaxDFRatio and requires the terms the band scan visits to grow
// about linearly: at most 5× for 4× the records. The threshold moves every
// ~8 inserts, so an unguarded O(V) scan per move makes a load quadratic
// (about 16× here); the guard scans only while a term's df sits in the
// band, which here happens only as the band passes the early head terms.
func TestLoadBandScanLinear(t *testing.T) {
	cfg := Config{
		Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: 0.12},
		Block:  BatchOptions{MinSharedTerms: 2, MinJaccard: 0.2},
	}
	load := func(n int) int64 {
		rng := rand.New(rand.NewSource(1))
		ix := New(cfg)
		for i := 0; i < n; i++ {
			e := i / 2
			text := fmt.Sprintf("brand%d model%d w%d w%d", e, e, rng.Intn(n), rng.Intn(n))
			if i < 256 {
				// Early head terms (df ≈ 64): the band sweeps past them
				// near n = 534, which the guard must scan for.
				text += fmt.Sprintf(" head%d", rng.Intn(4))
			}
			ix.Upsert(fmt.Sprintf("r%06d", i), text, 0)
		}
		return ix.bandVisited
	}
	small, large := load(4000), load(16000)
	t.Logf("terms the band scan visited over a load: %d for 4k records, %d for 16k", small, large)
	if small == 0 {
		t.Fatal("the 4k load never scanned the band; the head terms no longer reach it, so the gate tests nothing")
	}
	if large > 5*small {
		t.Fatalf("a 16k load's band scan visits %.1f× a 4k load's terms, want at most 5×", float64(large)/float64(small))
	}
}

// TestFreshInsertDerivesOneRow loads 8k fresh records with no MaxDFRatio,
// so no band ever crosses, and requires about one re-derived row per
// insert: the new record's own. Most inserts take a term from df 1 to 2
// (the second record of an entity, and the random w terms); re-deriving
// each such term's other holder as well costs about 2.1 rows per insert.
func TestFreshInsertDerivesOneRow(t *testing.T) {
	cfg := Config{
		Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
		Block:  BatchOptions{MinSharedTerms: 2, MinJaccard: 0.2},
	}
	const n = 8000
	rng := rand.New(rand.NewSource(1))
	ix := New(cfg)
	for i := 0; i < n; i++ {
		e := i / 2
		ix.Upsert(fmt.Sprintf("r%06d", i), fmt.Sprintf("brand%d model%d w%d w%d", e, e, rng.Intn(n), rng.Intn(n)), 0)
	}
	perInsert := float64(ix.rowsDerived) / n
	t.Logf("rows re-derived over a %d-record load: %d (%.3f per insert)", n, ix.rowsDerived, perInsert)
	if perInsert > 1.05 {
		t.Fatalf("%.3f rows re-derived per fresh insert, want about 1", perInsert)
	}
	v := ix.Materialize()
	requireExactRows(t, ix, v, n)
	if v.Graph.NumPairs() < n/4 {
		t.Fatalf("the load formed %d pairs, want at least %d: the entity pairs must block", v.Graph.NumPairs(), n/4)
	}
}
