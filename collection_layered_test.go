package er

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
	"unsafe"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/index"
)

// layeredTwin is er.Collection rebuilt from its batch-equivalent layers: a
// twin index.Index fed the same mutations, its full Materialize, DeltaFuse
// over every component, FromMatches and EvaluatePairs. It is the oracle the
// resident collection resolve must match bit for bit.
type layeredTwin struct {
	ix    *index.Index
	cache *engine.Cache
	opts  Options
}

func newLayeredTwin(opts Options) *layeredTwin {
	return &layeredTwin{
		ix: index.New(index.Config{
			Corpus: opts.corpusOptions(),
			Block: index.BatchOptions{
				CrossSourceOnly: opts.CrossSourceOnly,
				MaxTermRecords:  opts.MaxTermRecords,
				MinJaccard:      opts.MinJaccard,
				MinSharedTerms:  opts.MinSharedTerms,
				Workers:         opts.Workers,
			},
		}),
		cache: engine.NewCache(0),
		opts:  opts,
	}
}

// twinComponent is one component of the twin's full candidate graph.
type twinComponent struct {
	graph *index.Graph
	ids   []string
}

// resolve returns the layered result and every component of the current
// candidate graph under its signature (member IDs plus content key).
func (w *layeredTwin) resolve(t *testing.T, live map[string]Record) (*Result, map[string]twinComponent) {
	t.Helper()
	v := w.ix.Materialize()
	copts := w.opts.coreOptions()
	run := engine.NewRun(context.Background(), engine.RunOptions{Workers: w.opts.Workers})
	out, stats, err := engine.DeltaFuse(run, v.Graph, len(v.IDs), copts, w.cache)
	if err != nil {
		t.Fatalf("layered delta fusion: %v", err)
	}
	res := &Result{
		Probabilities:  out.P,
		Clusters:       cluster.FromMatches(len(v.IDs), v.Graph.Pairs, out.Matches),
		GraphNodes:     out.Nodes,
		GraphEdges:     out.Edges,
		Converged:      out.Converged,
		NumericRepairs: out.NumericRepairs,
		IDs:            v.IDs,
		Delta:          &DeltaStats{Components: stats.Components},
	}
	for k, m := range out.Matches {
		if m {
			pr := v.Graph.Pairs[k]
			res.Matches = append(res.Matches, Match{I: int(pr.I), J: int(pr.J), Probability: out.P[k]})
		}
	}
	if truth, ok := twinTruth(v.IDs, live, w.opts.CrossSourceOnly); ok {
		m := eval.EvaluatePairs(v.Graph.Pairs, out.Matches, truth, len(truth))
		res.Evaluation = &m
	}

	part := core.PartitionComponents(v.Graph, len(v.IDs))
	fuser := engine.NewComponentFuser(run, copts, nil)
	comps := make(map[string]twinComponent, len(part.Comps))
	for ci, comp := range part.Comps {
		lg := engine.LocalizeComponent(v.Graph, part, ci)
		ids := make([]string, len(comp.Records))
		for k, pos := range comp.Records {
			ids[k] = v.IDs[pos]
		}
		comps[componentSignature(ids, fuser.Key(lg))] = twinComponent{graph: lg, ids: ids}
	}
	return res, comps
}

// twinTruth is the batch ground truth over positions: every record must be
// labeled, and under CrossSourceOnly only cross-source pairs count.
func twinTruth(ids []string, live map[string]Record, cross bool) (map[uint64]bool, bool) {
	truth := make(map[uint64]bool)
	for a := range ids {
		ra := live[ids[a]]
		if ra.Entity == "" {
			return nil, false
		}
		for b := a + 1; b < len(ids); b++ {
			rb := live[ids[b]]
			if rb.Entity == ra.Entity && (!cross || int32(ra.Source) != int32(rb.Source)) {
				truth[index.Key(int32(a), int32(b))] = true
			}
		}
	}
	return truth, true
}

func componentSignature(ids []string, key string) string {
	return strings.Join(ids, ",") + "|" + hex.EncodeToString([]byte(key))
}

// layeredRun drives a collection and its layered twin through the same
// mutations and holds every resolve to the twin.
type layeredRun struct {
	t     *testing.T
	c     *Collection
	w     *layeredTwin
	snaps *SnapshotCache
	live  map[string]Record
	prev  map[string]twinComponent

	// Touched external IDs since the last resolve, from the deltas.
	touched map[string]bool
	all     bool
	// rebuilds counts Rebuilt deltas, resolves the compared resolves, and
	// sources the most distinct live sources any resolve saw.
	rebuilds, resolves, sources int
}

func newLayeredRun(t *testing.T, opts Options) *layeredRun {
	opts.Snapshots = NewSnapshotCache(0)
	c, err := NewCollection(opts)
	if err != nil {
		t.Fatal(err)
	}
	return &layeredRun{
		t: t, c: c, w: newLayeredTwin(opts), snaps: opts.Snapshots,
		live: make(map[string]Record), touched: make(map[string]bool),
	}
}

func (r *layeredRun) note(d CollectionDelta) {
	if d.Rebuilt {
		r.all = true
		r.rebuilds++
	}
	for _, id := range d.Touched {
		r.touched[id] = true
	}
	for _, ps := range [][][2]string{d.AddedPairs, d.RemovedPairs} {
		for _, p := range ps {
			r.touched[p[0]] = true
			r.touched[p[1]] = true
		}
	}
}

func (r *layeredRun) upsert(id string, rec Record) {
	d := r.c.Upsert(id, rec)
	if wd := r.w.ix.Upsert(id, rec.Text, rec.Source); !reflect.DeepEqual(wd, d) {
		r.t.Fatalf("upsert %q: collection delta %+v, twin delta %+v", id, d, wd)
	}
	r.note(d)
	r.live[id] = rec
}

func (r *layeredRun) delete(id string) {
	d, ok := r.c.Delete(id)
	if _, wok := r.w.ix.Delete(id); wok != ok {
		r.t.Fatalf("delete %q: collection reports %v, twin %v", id, ok, wok)
	}
	r.note(d)
	delete(r.live, id)
}

// liveIDs returns the live IDs in ascending order.
func (r *layeredRun) liveIDs() []string {
	ids := make([]string, 0, len(r.live))
	for id := range r.live {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// resolve resolves the collection and the twin and compares every Result
// field, the touched components' local graphs and the re-keyed set.
func (r *layeredRun) resolve() {
	t := r.t
	t.Helper()
	if len(r.live) == 0 {
		return
	}
	// Pending changes nothing the index keeps, so peeking at what this
	// resolve will key is free of side effects.
	pd := r.c.ix.Pending()
	pd.Materialize()
	fuser := engine.NewComponentFuser(engine.NewRun(context.Background(), engine.RunOptions{}), r.c.opts.coreOptions(), nil)
	rekeyed := make(map[string]*index.Graph, len(pd.Comps))
	for _, comp := range pd.Comps {
		ids := make([]string, len(comp.Records))
		for k, pos := range comp.Records {
			ids[k] = pd.IDs[pos]
		}
		rekeyed[componentSignature(ids, fuser.Key(comp.Graph))] = comp.Graph
	}

	before := r.snaps.Stats()
	got, err := r.c.Resolve()
	if err != nil {
		t.Fatalf("collection resolve: %v", err)
	}
	after := r.snaps.Stats()
	want, comps := r.w.resolve(t, r.live)
	requireLayeredEqual(t, want, got)
	r.resolves++
	sources := make(map[int]bool)
	for _, rec := range r.live {
		sources[rec.Source] = true
	}
	r.sources = max(r.sources, len(sources))

	if keyed := (after.ComponentHits + after.ComponentMisses) - (before.ComponentHits + before.ComponentMisses); keyed != int64(len(rekeyed)) {
		t.Fatalf("resolve %d: %d keyed cache lookups, %d touched components", r.resolves, keyed, len(rekeyed))
	}
	// The re-keyed components are exactly the components holding a touched
	// record, each with the twin's local graph.
	for sig, g := range rekeyed {
		tc, ok := comps[sig]
		if !ok {
			t.Fatalf("resolve %d: re-keyed component %s is not a component of the batch graph", r.resolves, sig)
		}
		if !reflect.DeepEqual(g, tc.graph) {
			t.Fatalf("resolve %d: component %s: local graph differs from the batch graph's", r.resolves, sig)
		}
	}
	for sig, tc := range comps {
		hit := r.all
		for _, id := range tc.ids {
			hit = hit || r.touched[id]
		}
		if _, ok := rekeyed[sig]; ok != hit {
			t.Fatalf("resolve %d: component %s re-keyed=%v but holds a touched record=%v", r.resolves, sig, ok, hit)
		}
		// Every component whose content key changed since the previous
		// resolve is among them.
		if _, old := r.prev[sig]; !old && !hit {
			t.Fatalf("resolve %d: component %s changed but was not re-keyed", r.resolves, sig)
		}
	}
	r.prev = comps
	r.touched = make(map[string]bool)
	r.all = false
}

// requireLayeredEqual compares every Result field the resident resolve
// must reproduce.
func requireLayeredEqual(t *testing.T, want, got *Result) {
	t.Helper()
	requireResultsEqual(t, want, got)
	if !reflect.DeepEqual(want.Matches, got.Matches) {
		t.Fatalf("matches differ: want %d, got %d", len(want.Matches), len(got.Matches))
	}
	if want.GraphNodes != got.GraphNodes || want.GraphEdges != got.GraphEdges {
		t.Fatalf("graph size: want %d nodes/%d edges, got %d/%d",
			want.GraphNodes, want.GraphEdges, got.GraphNodes, got.GraphEdges)
	}
	if want.NumericRepairs != got.NumericRepairs {
		t.Fatalf("numeric repairs: want %d, got %d", want.NumericRepairs, got.NumericRepairs)
	}
	if got.Delta == nil || want.Delta.Components != got.Delta.Components {
		t.Fatalf("components: want %+v, got %+v", want.Delta, got.Delta)
	}
	if d := got.Delta; d.ComponentsFused+d.ComponentsReused != d.Components || d.PairsFused+d.PairsReused != len(got.Probabilities) {
		t.Fatalf("delta split does not add up: %+v over %d pairs", *d, len(got.Probabilities))
	}
}

// TestCollectionMatchesLayered holds the resident collection resolve to
// Materialize + DeltaFuse + FromMatches + EvaluatePairs over a twin index,
// field by field, across random upsert/overwrite/delete/re-insert
// sequences. It also pins which components a resolve keys: exactly those
// holding a record some mutation touched since the previous resolve, which
// include every component whose content key changed. (A touched component
// can keep its key — a record rewritten with the same eligible structure —
// so the two sets are not always equal; such a component is keyed and hits
// the cache.)
func TestCollectionMatchesLayered(t *testing.T) {
	type scenario struct {
		name  string
		opts  func(Options) Options
		steps func(r *layeredRun, rng *rand.Rand, step int)
		check func(t *testing.T, r *layeredRun)
	}
	randomRecord := func(rng *rand.Rand) Record {
		rec := collectionRecord(rng, rng.Intn(8))
		if rng.Intn(2) == 0 {
			rec.Text += " half" // df near n/2: the MaxDFRatio band sweeps over it
		}
		return rec
	}
	randomSteps := func(r *layeredRun, rng *rand.Rand, step int) {
		for k := 1 + rng.Intn(3); k > 0; k-- {
			ids := r.liveIDs()
			switch {
			case len(ids) > 4 && rng.Intn(4) == 0:
				r.delete(ids[rng.Intn(len(ids))])
			case len(ids) > 0 && rng.Intn(3) == 0:
				r.upsert(ids[rng.Intn(len(ids))], randomRecord(rng)) // overwrite
			default:
				r.upsert(fmt.Sprintf("r%02d", rng.Intn(40)), randomRecord(rng)) // insert or re-insert
			}
		}
		switch step % 5 {
		case 1: // rid reuse: delete, then insert a new ID before resolving
			if ids := r.liveIDs(); len(ids) > 2 {
				r.delete(ids[rng.Intn(len(ids))])
				r.upsert(fmt.Sprintf("n%03d", step), randomRecord(rng))
			}
		case 3: // delete every record of one component of the last resolve
			sigs := make([]string, 0, len(r.prev))
			for sig := range r.prev {
				sigs = append(sigs, sig)
			}
			sort.Strings(sigs)
			if len(sigs) > 0 {
				for _, id := range r.prev[sigs[rng.Intn(len(sigs))]].ids {
					if _, ok := r.live[id]; ok {
						r.delete(id)
					}
				}
			}
		}
	}
	scenarios := []scenario{
		{name: "mixed", steps: randomSteps},
		{
			name:  "cross-source",
			opts:  func(o Options) Options { o.CrossSourceOnly = true; return o },
			steps: randomSteps,
			check: func(t *testing.T, r *layeredRun) {
				if r.sources != 2 {
					t.Fatalf("no resolve saw two live sources (at most %d)", r.sources)
				}
			},
		},
		{
			name: "unlabeled",
			steps: func(r *layeredRun, rng *rand.Rand, step int) {
				randomSteps(r, rng, step)
				// Every other step leaves one record unlabeled, so the
				// evaluation comes and goes.
				if ids := r.liveIDs(); step%2 == 0 && len(ids) > 0 {
					rec := randomRecord(rng)
					rec.Entity = ""
					r.upsert(ids[rng.Intn(len(ids))], rec)
				} else {
					for _, id := range ids {
						if r.live[id].Entity == "" {
							r.upsert(id, randomRecord(rng))
						}
					}
				}
			},
		},
		{
			// 1030 records share "common" under MaxTermRecords 1030: the
			// 1031st holder makes it ineligible, which touches more records
			// than the patch threshold (1024) and rebuilds the pair table;
			// deleting it again rebuilds back.
			name: "rebuild",
			opts: func(o Options) Options { o.MaxTermRecords = 1030; o.MaxDFRatio = 0; return o },
			steps: func(r *layeredRun, rng *rand.Rand, step int) {
				if step == 0 {
					for i := 0; i < 1030; i++ {
						r.upsert(fmt.Sprintf("c%04d", i), Record{
							Text:   fmt.Sprintf("common ent%d mod%d u%d", i/2, i/2, i),
							Entity: fmt.Sprintf("c%d", i/2),
						})
					}
					return
				}
				id := "c9999"
				if _, ok := r.live[id]; ok {
					r.delete(id)
				} else {
					r.upsert(id, Record{Text: fmt.Sprintf("common ent0 mod0 x%d", step), Entity: "c0"})
				}
				r.upsert(fmt.Sprintf("c%04d", rng.Intn(1030)), Record{
					Text:   fmt.Sprintf("common ent%d mod%d y%d", step, step, step),
					Entity: fmt.Sprintf("c%d", step),
				})
			},
			check: func(t *testing.T, r *layeredRun) {
				if r.rebuilds == 0 {
					t.Fatal("scenario never forced a Rebuilt delta")
				}
			},
		},
	}
	for _, sc := range scenarios {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", sc.name, workers), func(t *testing.T) {
				opts := collectionOptions(workers)
				if sc.opts != nil {
					opts = sc.opts(opts)
				}
				r := newLayeredRun(t, opts)
				rng := rand.New(rand.NewSource(int64(17 + workers)))
				steps := 40
				if sc.name == "rebuild" {
					steps = 6
				}
				for step := 0; step < steps; step++ {
					sc.steps(r, rng, step)
					r.resolve()
				}
				if r.resolves < steps/2 {
					t.Fatalf("only %d resolves compared", r.resolves)
				}
				if sc.check != nil {
					sc.check(t, r)
				}
			})
		}
	}
}

// TestCollectionMatchesLayeredBandMove is the MaxDFRatio scenario of the
// layered oracle: with MaxDFRatio 0.5 and "half" in about half the
// records, the kept threshold n/2 crosses the term's document frequency as
// records come and go, flipping it for every record that holds it.
func TestCollectionMatchesLayeredBandMove(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			r := newLayeredRun(t, collectionOptions(workers))
			rng := rand.New(rand.NewSource(5))
			kept := func() bool {
				df := 0
				for _, rec := range r.live {
					if strings.HasSuffix(rec.Text, " half") {
						df++
					}
				}
				return df >= 1 && df <= max(2, int(0.5*float64(len(r.live))))
			}
			flips := 0
			was := kept()
			for step := 0; step < 60; step++ {
				rec := collectionRecord(rng, rng.Intn(8))
				if rng.Intn(2) == 0 {
					rec.Text += " half"
				}
				if ids := r.liveIDs(); len(ids) > 6 && rng.Intn(3) == 0 {
					r.delete(ids[rng.Intn(len(ids))])
				} else {
					r.upsert(fmt.Sprintf("r%02d", rng.Intn(40)), rec)
				}
				if now := kept(); now != was {
					flips++
					was = now
				}
				if step%3 == 2 {
					r.resolve()
				}
			}
			if flips == 0 {
				t.Fatal("the kept band never moved across the term's document frequency")
			}
		})
	}
}

// TestCollectionCanceledResolveKeepsTouched cancels a resolve inside the
// deltafuse stage, after the touched records were expanded, and checks
// that the next resolve still sees them: its result equals a fresh
// collection's over the same records.
func TestCollectionCanceledResolveKeepsTouched(t *testing.T) {
	var arm func()
	opts := collectionOptions(1)
	// Progress fires inside fusion, which only a cache miss in the
	// deltafuse stage runs.
	opts.Progress = func(int, []float64, []float64, time.Duration) {
		if arm != nil {
			arm()
			arm = nil
		}
	}
	c, err := NewCollection(opts)
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[string]Record)
	upsert := func(id string, rec Record) {
		c.Upsert(id, rec)
		live[id] = rec
	}
	for e := 0; e < 6; e++ {
		for k := 0; k < 3; k++ {
			upsert(fmt.Sprintf("e%d-%d", e, k), Record{
				Text:   fmt.Sprintf("alpha%d beta%d gamma%d v%d", e, e, e, k),
				Entity: fmt.Sprintf("e%d", e),
			})
		}
	}
	if _, err := c.Resolve(); err != nil {
		t.Fatal(err)
	}

	// Grow two components to sizes no component had, so both miss the
	// cache and fuse.
	for k := 3; k < 6; k++ {
		upsert(fmt.Sprintf("e0-%d", k), Record{Text: fmt.Sprintf("alpha0 beta0 gamma0 w%d", k), Entity: "e0"})
	}
	c.Delete("e3-1")
	delete(live, "e3-1")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	arm = cancel
	if _, err := c.ResolveContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled resolve: want context.Canceled, got %v", err)
	}
	if arm != nil {
		t.Fatal("the resolve never reached fusion")
	}
	// One more mutation between the canceled resolve and the next.
	upsert("e5-9", Record{Text: "alpha5 beta5 gamma5 z", Entity: "e5"})

	got, err := c.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCollection(collectionOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	for id, rec := range live {
		fresh.Upsert(id, rec)
	}
	want, err := fresh.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	requireResultsEqual(t, want, got)
	if got.Delta.Components != want.Delta.Components {
		t.Fatalf("components: want %d, got %d", want.Delta.Components, got.Delta.Components)
	}
}

// warmCollection loads n synthetic records (about a third of them
// singleton entities, the rest pairs) into a collection, resolves it cold
// and returns it with a step that overwrites one record, alternating
// between two texts, and resolves again. The overwritten record r000010
// bridges the pair of entity 5 and the record of entity 4, so every step
// re-fuses a three-record component; the component cache is off, or the
// two alternating texts would be served from it after the second step.
func warmCollection(t *testing.T, n int) (*Collection, func() *Result) {
	t.Helper()
	c, err := NewCollection(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		e := i / 2
		if rng.Intn(3) == 0 {
			e = n + i // a singleton entity
		}
		c.Upsert(fmt.Sprintf("r%06d", i), Record{
			Text:   fmt.Sprintf("brand%d model%d series%d w%d w%d", e, e, e%97, rng.Intn(5000), rng.Intn(5000)),
			Entity: fmt.Sprintf("e%d", e),
		})
	}
	if _, err := c.Resolve(); err != nil {
		t.Fatal(err)
	}
	c.cache = nil
	flip := false
	return c, func() *Result {
		text := "brand4 model4 brand5 model5 w1"
		if flip = !flip; flip {
			text = "brand4 model4 brand5 model5 w2"
		}
		c.Upsert("r000010", Record{Text: text, Entity: "e5"})
		res, err := c.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

// reinsertStep returns a step that deletes the mid-order record r{n/2}
// and re-inserts it on alternate calls, resolving after each, so every
// resolve moves the position of every record after it. The re-inserted
// record joins the component of entities 4 and 5, as warmCollection's
// overwrite does, so both steps re-fuse the same component at any n.
func reinsertStep(t *testing.T, c *Collection, n int) func() *Result {
	t.Helper()
	id := fmt.Sprintf("r%06d", n/2)
	rec := Record{Text: "brand4 model4 brand5 model5 w3", Entity: "e5"}
	c.Upsert(id, rec)
	deleted := false
	return func() *Result {
		if deleted = !deleted; deleted {
			c.Delete(id)
		} else {
			c.Upsert(id, rec)
		}
		res, err := c.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
}

// warmSteps are the mutations the delta-sized gates time: warmCollection's
// overwrite, which moves no position, and reinsertStep's delete and
// re-insert, which moves half of them.
var warmSteps = []struct {
	name string
	step func(t *testing.T, n int) func() *Result
}{
	{"overwrite", func(t *testing.T, n int) func() *Result {
		_, step := warmCollection(t, n)
		return step
	}},
	{"delete-reinsert", func(t *testing.T, n int) func() *Result {
		c, _ := warmCollection(t, n)
		return reinsertStep(t, c, n)
	}},
}

// TestWarmResolveAllocsDeltaSized guards the warm path's size: one fixed
// one-record mutation plus Resolve allocates about as many objects at 16k
// records as at 4k, whether or not it moves positions. A path that
// rebuilt anything per record or per pair would grow its allocation count
// with the corpus.
func TestWarmResolveAllocsDeltaSized(t *testing.T) {
	for _, ws := range warmSteps {
		t.Run(ws.name, func(t *testing.T) {
			allocs := func(n int) float64 {
				step := ws.step(t, n)
				if d := step().Delta; d.ComponentsFused < 1 {
					t.Fatalf("%d records: the mutation fused no component", n)
				}
				return testing.AllocsPerRun(10, func() { step() })
			}
			small, large := allocs(4000), allocs(16000)
			t.Logf("allocs per mutation+resolve: %.0f at 4k records, %.0f at 16k", small, large)
			if large > 1.5*small {
				t.Fatalf("warm resolve allocations grow with the corpus: %.0f at 4k, %.0f at 16k records", small, large)
			}
		})
	}
}

// TestWarmResolveBytesDeltaSized is the byte-sized twin of the count gate,
// over the same two mutations.
// A warm resolve must hand the caller fresh IDs, Clusters, Probabilities
// and Matches, which are as large as the collection; every other byte it
// allocates, scratch included, must not grow with the corpus. Clustering
// every record from scratch, or rebuilding any pair-ordered array, fails
// it.
func TestWarmResolveBytesDeltaSized(t *testing.T) {
	// allocSize is what the runtime hands out for a request of b bytes:
	// the size class, or whole pages for large objects.
	allocSize := func(b uintptr) uint64 {
		if b == 0 {
			return 0
		}
		return uint64(cap(append([]byte(nil), make([]byte, b)...)))
	}
	owned := func(res *Result) uint64 {
		n := allocSize(uintptr(len(res.IDs))*unsafe.Sizeof("")) +
			allocSize(uintptr(len(res.Probabilities))*unsafe.Sizeof(0.0)) +
			allocSize(uintptr(len(res.Matches))*unsafe.Sizeof(Match{})) +
			allocSize(uintptr(len(res.Clusters))*unsafe.Sizeof([]int(nil)))
		members := 0
		for _, cl := range res.Clusters {
			members += len(cl)
		}
		return n + allocSize(uintptr(members)*unsafe.Sizeof(0))
	}
	for _, ws := range warmSteps {
		t.Run(ws.name, func(t *testing.T) {
			rest := func(n int) float64 {
				step := ws.step(t, n)
				if d := step().Delta; d.ComponentsFused < 1 {
					t.Fatalf("%d records: the mutation fused no component", n)
				}
				const runs = 20
				results := make([]*Result, 0, runs)
				var before, after runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&before)
				for range runs {
					results = append(results, step())
				}
				runtime.ReadMemStats(&after)
				var ownedBytes uint64
				for _, res := range results {
					ownedBytes += owned(res)
				}
				total := after.TotalAlloc - before.TotalAlloc
				t.Logf("%d records: %d bytes per mutation+resolve, %d of them caller-owned",
					n, total/runs, ownedBytes/runs)
				return float64(total-ownedBytes) / runs
			}
			small, large := rest(4000), rest(16000)
			t.Logf("bytes per mutation+resolve beyond the caller-owned result: %.0f at 4k records, %.0f at 16k", small, large)
			if large > 1.5*small {
				t.Fatalf("warm resolve bytes beyond the result grow with the corpus: %.0f at 4k, %.0f at 16k records", small, large)
			}
		})
	}
}

// warmWork is what a warm resolve did per record or per pair beyond
// filling the caller's result: positions it refreshed, component slots it
// looked up by record handle (the committed pairs' drop test reads none,
// as each pair carries its slot), matches whose ground truth it looked
// up, and committed cluster members whose position it looked up by handle.
type warmWork struct {
	positions, slotLookups, labelled, memberLookups int64
}

func (c *Collection) work() warmWork {
	rw := c.ix.ResidentWork()
	return warmWork{rw.PositionsRefreshed, rw.SlotLookups, c.labelled, c.layout.Lookups()}
}

// TestWarmResolveWorkDeltaSized counts the work of one overwrite plus
// Resolve at 4k and 16k records. The overwrite moves no position and
// touches the same component at both sizes, so every count must be equal
// at both and bounded by that component: a resolve that refreshed every
// position, tested every committed pair's component through a per-record
// array, re-labelled every match or walked every committed cluster member
// would scale with the collection.
func TestWarmResolveWorkDeltaSized(t *testing.T) {
	const bound = 64
	work := func(n int) warmWork {
		c, step := warmCollection(t, n)
		step()
		before := c.work()
		if d := step().Delta; d.ComponentsFused != 1 {
			t.Fatalf("%d records: the overwrite fused %d components, want 1", n, d.ComponentsFused)
		}
		after := c.work()
		return warmWork{
			after.positions - before.positions,
			after.slotLookups - before.slotLookups,
			after.labelled - before.labelled,
			after.memberLookups - before.memberLookups,
		}
	}
	small, large := work(4000), work(16000)
	t.Logf("work per overwrite+resolve at 4k records %+v, at 16k %+v", small, large)
	if small != large {
		t.Fatalf("warm resolve work differs between 4k and 16k records: %+v vs %+v", small, large)
	}
	for _, w := range []struct {
		what string
		n    int64
	}{
		{"positions refreshed", large.positions},
		{"slots looked up by record", large.slotLookups},
		{"matches re-labelled", large.labelled},
		{"cluster members looked up", large.memberLookups},
	} {
		if w.n > bound {
			t.Errorf("%s: %d per overwrite, want at most %d", w.what, w.n, bound)
		}
	}
}
