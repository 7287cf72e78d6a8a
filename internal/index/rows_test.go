package index

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/textproc"
)

// requireExactRows checks the survivor rows against a materialized view of
// the same index: every live record's row lists distinct live partners,
// each pair sits in both endpoints' rows, a freed handle has an empty row,
// and the pairs the rows hold are exactly the view's candidate pairs.
func requireExactRows(t *testing.T, ix *Index, v *View, step int) {
	t.Helper()
	rows := make(map[uint64]bool)
	for r, row := range ix.adj {
		rid := int32(r)
		if ix.extID[r] == "" {
			if len(row) != 0 {
				t.Fatalf("step %d: freed handle %d has row %v", step, rid, row)
			}
			continue
		}
		sorted := slices.Clone(row)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) != len(row) {
			t.Fatalf("step %d: record %q lists a partner twice: %v", step, ix.extID[r], row)
		}
		for _, q := range row {
			switch {
			case q == rid:
				t.Fatalf("step %d: record %q lists itself", step, ix.extID[r])
			case ix.extID[q] == "":
				t.Fatalf("step %d: record %q lists freed handle %d", step, ix.extID[r], q)
			case !slices.Contains(ix.adj[q], rid):
				t.Fatalf("step %d: %q lists %q but not the reverse", step, ix.extID[r], ix.extID[q])
			}
			rows[Key(rid, q)] = true
		}
	}
	want := make(map[uint64]bool, v.Graph.NumPairs())
	for _, pr := range v.Graph.Pairs {
		a, _ := ix.Handle(v.IDs[pr.I])
		b, _ := ix.Handle(v.IDs[pr.J])
		want[Key(a, b)] = true
	}
	if !reflect.DeepEqual(want, rows) {
		t.Fatalf("step %d: rows hold %d pairs, the materialized graph %d, and they differ", step, len(rows), len(want))
	}
}

// TestRebuildSameAtEveryWorkerCount drives the Rebuilt fallback the way
// the root package's layered "rebuild" scenario does: 1030 records share
// "common" under MaxTermRecords 1030, so its 1031st holder makes it
// ineligible and touches more records than the patch threshold (1024);
// deleting that holder rebuilds back. A Rebuilt Delta lists no pairs and
// no records, in both directions. At Block.Workers 1, 2 and 4 every
// mutation's Delta and the rows after it must be the same, the rows
// exact, and Materialize equal to the batch build.
func TestRebuildSameAtEveryWorkerCount(t *testing.T) {
	type run struct {
		deltas []Delta
		rows   [][][]int32
	}
	drive := func(t *testing.T, workers int) run {
		cfg := Config{
			Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
			Block:  BatchOptions{MaxTermRecords: 1030, MinSharedTerms: 2, MinJaccard: 0.2, Workers: workers},
		}
		ix := New(cfg)
		model := make(map[string]liveRecord)
		for i := 0; i < 1030; i++ {
			rec := liveRecord{text: fmt.Sprintf("common ent%d mod%d u%d", i/2, i/2, i)}
			model[fmt.Sprintf("c%04d", i)] = rec
			ix.Upsert(fmt.Sprintf("c%04d", i), rec.text, rec.source)
		}
		rng := rand.New(rand.NewSource(5))
		var out run
		rebuilds := 0
		apply := func(step int, d Delta) {
			if d.Rebuilt {
				rebuilds++
				if d.AddedPairs != nil || d.RemovedPairs != nil || d.Touched != nil {
					t.Fatalf("step %d: a Rebuilt delta lists pairs or records: %+v", step, d)
				}
			}
			out.deltas = append(out.deltas, d)
			rows := make([][]int32, len(ix.adj))
			for r, row := range ix.adj {
				rows[r] = slices.Clone(row)
			}
			out.rows = append(out.rows, rows)
			v := ix.Materialize()
			requireExactRows(t, ix, v, step)
			wantC, wantG, _, _ := batchView(t, model, cfg)
			requireCorporaEqual(t, wantC, v.Corpus)
			requireGraphsEqual(t, wantG, v.Graph)
		}
		for step := 1; step <= 6; step++ {
			if _, ok := model["c9999"]; ok {
				delete(model, "c9999")
				d, _ := ix.Delete("c9999")
				apply(step, d)
			} else {
				rec := liveRecord{text: fmt.Sprintf("common ent0 mod0 x%d", step)}
				model["c9999"] = rec
				apply(step, ix.Upsert("c9999", rec.text, rec.source))
			}
			id := fmt.Sprintf("c%04d", rng.Intn(1030))
			rec := liveRecord{text: fmt.Sprintf("common ent%d mod%d y%d", step, step, step)}
			model[id] = rec
			apply(step, ix.Upsert(id, rec.text, rec.source))
		}
		if rebuilds < 6 {
			t.Fatalf("workers=%d: %d Rebuilt deltas, want one per insert and delete of the 1031st holder", workers, rebuilds)
		}
		return out
	}
	base := drive(t, 1)
	for _, workers := range []int{2, 4} {
		got := drive(t, workers)
		for k := range base.deltas {
			if !reflect.DeepEqual(base.deltas[k], got.deltas[k]) {
				t.Fatalf("workers=%d: mutation %d reports %+v, workers=1 %+v", workers, k, got.deltas[k], base.deltas[k])
			}
			if !reflect.DeepEqual(base.rows[k], got.rows[k]) {
				t.Fatalf("workers=%d: rows after mutation %d differ from workers=1", workers, k)
			}
		}
	}
}

// TestOrderQueueReinsert inserts IDs out of order, then deletes and
// re-inserts one of them, all before any read of the record order: the
// queued handle must be spliced in before the delete looks for it, and
// the re-inserted handle queued afresh.
func TestOrderQueueReinsert(t *testing.T) {
	cfg := Config{
		Corpus: textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()},
		Block:  BatchOptions{MinSharedTerms: 1},
	}
	ix := New(cfg)
	model := map[string]liveRecord{
		"m": {text: "alpha beta"},
		"c": {text: "beta gamma"},
		"x": {text: "gamma delta"},
	}
	for _, id := range []string{"m", "x", "c"} {
		ix.Upsert(id, model[id].text, 0)
	}
	ix.Delete("m")
	delete(model, "m")
	model["m"] = liveRecord{text: "alpha gamma"}
	ix.Upsert("m", model["m"].text, 0)
	model["a"] = liveRecord{text: "alpha"}
	ix.Upsert("a", model["a"].text, 0)

	pd := ix.Pending()
	if want := []string{"a", "c", "m", "x"}; !reflect.DeepEqual(pd.IDs, want) {
		t.Fatalf("Pending IDs %v, want %v", pd.IDs, want)
	}
	v := ix.Materialize()
	wantC, wantG, wantIDs, _ := batchView(t, model, cfg)
	if !reflect.DeepEqual(v.IDs, wantIDs) {
		t.Fatalf("Materialize IDs %v, want %v", v.IDs, wantIDs)
	}
	requireCorporaEqual(t, wantC, v.Corpus)
	requireGraphsEqual(t, wantG, v.Graph)
	requireExactRows(t, ix, v, 0)
}
