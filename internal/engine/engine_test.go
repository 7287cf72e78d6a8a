package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/textproc"
)

// fakeClock returns an injected clock advancing 1ms per reading, so stage
// walls are deterministic and non-zero without touching ambient time.
func fakeClock() func() time.Time {
	base := time.Unix(0, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

func testInputs(t *testing.T, cache *Cache) PrepareInputs {
	t.Helper()
	ds := dataset.GenRestaurant(dataset.GenConfig{Seed: 1, Scale: 0.05})
	return PrepareInputs{
		Texts:   ds.Texts(),
		Sources: ds.Sources(),
		Corpus:  textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: 0.12},
		Blocking: index.BatchOptions{
			CrossSourceOnly: ds.NumSources > 1,
			MinSharedTerms:  2,
			MinJaccard:      0.2,
		},
		Cache: cache,
	}
}

func TestPrepareRecordsStages(t *testing.T) {
	run := NewRun(context.Background(), RunOptions{Clock: fakeClock()})
	in := testInputs(t, nil)
	snap, err := Prepare(run, in)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	tr := run.Trace()
	if len(tr) != 2 || tr[0].Stage != StageTokenize || tr[1].Stage != StageBlock {
		t.Fatalf("trace stages = %+v, want [tokenize block]", tr)
	}
	tok := tr.Find(StageTokenize)
	if tok.In != len(in.Texts) || tok.InUnit != "records" {
		t.Errorf("tokenize in = %d %s, want %d records", tok.In, tok.InUnit, len(in.Texts))
	}
	if tok.Out != snap.NumTerms() || tok.Wall <= 0 {
		t.Errorf("tokenize out=%d wall=%s, want %d terms and positive wall", tok.Out, tok.Wall, snap.NumTerms())
	}
	blk := tr.Find(StageBlock)
	if blk.Out != snap.NumPairs() || blk.Wall <= 0 {
		t.Errorf("block out=%d wall=%s, want %d pairs and positive wall", blk.Out, blk.Wall, snap.NumPairs())
	}
	if snap.Corpus == nil || snap.Graph == nil {
		t.Fatalf("incomplete snapshot: %+v", snap)
	}
	// Without a cache the content key is left to KeyMemo, on demand.
	if snap.Key != "" {
		t.Errorf("Prepare without a cache computed the snapshot key %q", snap.Key)
	}
	var memo KeyMemo
	if got, want := memo.Get(snap, func() PrepareInputs { return in }), in.Key(); got != want {
		t.Errorf("KeyMemo.Get = %q, want Key over the inputs %q", got, want)
	}
	if s := tr.String(); !strings.Contains(s, "tokenize") || !strings.Contains(s, "pairs") {
		t.Errorf("trace rendering missing stages:\n%s", s)
	}
}

func TestPrepareCacheHit(t *testing.T) {
	cache := NewCache(4)
	in := testInputs(t, cache)

	run1 := NewRun(context.Background(), RunOptions{Clock: fakeClock()})
	snap1, err := Prepare(run1, in)
	if err != nil {
		t.Fatalf("first Prepare: %v", err)
	}
	run2 := NewRun(context.Background(), RunOptions{Clock: fakeClock()})
	snap2, err := Prepare(run2, in)
	if err != nil {
		t.Fatalf("second Prepare: %v", err)
	}
	if snap2 != snap1 {
		t.Fatalf("cache miss: second Prepare rebuilt the snapshot")
	}
	for _, st := range run2.Trace() {
		if !st.Cached {
			t.Errorf("stage %s not marked cached on a hit", st.Stage)
		}
	}
	stats := cache.Stats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry", stats)
	}
}

func TestKeySensitivity(t *testing.T) {
	in := testInputs(t, nil)
	base := Key(in.Texts, in.Sources, in.Corpus, in.Blocking, 0)

	if k := Key(in.Texts, in.Sources, in.Corpus, in.Blocking, 0); k != base {
		t.Errorf("key not stable: %s vs %s", k, base)
	}
	texts := append([]string(nil), in.Texts...)
	texts[0] += "x"
	if k := Key(texts, in.Sources, in.Corpus, in.Blocking, 0); k == base {
		t.Errorf("key ignores text content")
	}
	b2 := in.Blocking
	b2.MinJaccard = 0.3
	if k := Key(in.Texts, in.Sources, in.Corpus, b2, 0); k == base {
		t.Errorf("key ignores blocking options")
	}
	if k := Key(in.Texts, in.Sources, in.Corpus, in.Blocking, 100); k == base {
		t.Errorf("key ignores the pair budget")
	}
	c2 := in.Corpus
	c2.Stopwords = []string{"b", "a"}
	c3 := in.Corpus
	c3.Stopwords = []string{"a", "b"}
	if Key(in.Texts, in.Sources, c2, in.Blocking, 0) != Key(in.Texts, in.Sources, c3, in.Blocking, 0) {
		t.Errorf("key depends on stopword order")
	}
}

// TestFuseMatchesRunFusion pins, for each rank path, that the engine's
// staged fusion is bit-identical to the whole-graph core.RunFusion and
// records exactly the stages that path runs: CliqueRank, ablations
// included, is ranked per component, RSS on the whole graph.
func TestFuseMatchesRunFusion(t *testing.T) {
	// A Paper replica slice: components of 2 to 12 records, sparse and
	// near-complete, so every component kernel runs.
	in := testInputs(t, nil)
	ds := dataset.GenPaper(dataset.GenConfig{Seed: 1, Scale: 0.05})
	in.Texts, in.Sources = ds.Texts(), ds.Sources()
	in.Blocking.CrossSourceOnly = ds.NumSources > 1
	prep := NewRun(context.Background(), RunOptions{Clock: fakeClock()})
	snap, err := Prepare(prep, in)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	partitioned := []string{StagePartition, StageITER, StageCliqueRank, StageFuse}
	cases := []struct {
		name   string
		modify func(*core.Options)
		stages []string
	}{
		{"default", func(*core.Options) {}, partitioned},
		// The deprecated field is ignored.
		{"sharded", func(o *core.Options) { o.ShardComponents = true }, partitioned},
		{"no-mask", func(o *core.Options) { o.DisableMask = true }, partitioned},
		{"no-bonus", func(o *core.Options) { o.DisableBonus = true }, partitioned},
		{"l2-no-denominator", func(o *core.Options) {
			o.Normalization, o.DisableDenominator = core.NormL2, true
		}, partitioned},
		{"rss", func(o *core.Options) { o.UseRSS = true },
			[]string{StageITER, StageRSS, StageFuse}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := core.DefaultOptions()
			opts.FusionIterations = 3
			tc.modify(&opts)

			run := NewRun(context.Background(), RunOptions{Clock: fakeClock()})
			res, err := Fuse(run, snap.Graph, snap.Corpus.NumRecords(), opts)
			if err != nil {
				t.Fatalf("Fuse: %v", err)
			}
			want, err := core.RunFusion(snap.Graph, snap.Corpus.NumRecords(), opts)
			if err != nil {
				t.Fatalf("RunFusion: %v", err)
			}
			for k := range want.P {
				if res.P[k] != want.P[k] || res.Matches[k] != want.Matches[k] {
					t.Fatalf("pair %d diverges: engine p=%v matched=%v, core p=%v matched=%v",
						k, res.P[k], res.Matches[k], want.P[k], want.Matches[k])
				}
			}
			for tm := range want.X {
				if res.X[tm] != want.X[tm] {
					t.Fatalf("term %d weight diverges: %v vs %v", tm, res.X[tm], want.X[tm])
				}
			}
			if res.Nodes != want.Nodes || res.Edges != want.Edges {
				t.Fatalf("graph size %d/%d, core %d/%d", res.Nodes, res.Edges, want.Nodes, want.Edges)
			}

			tr := run.Trace()
			var got []string
			for _, st := range tr {
				got = append(got, st.Stage)
			}
			if strings.Join(got, ",") != strings.Join(tc.stages, ",") {
				t.Fatalf("stages = %v, want %v", got, tc.stages)
			}
			iter := tr.Find(StageITER)
			if iter.Rounds != 3 || iter.Iterations <= 0 || iter.Wall <= 0 {
				t.Fatalf("iter stage = %+v, want 3 rounds with iterations and wall", iter)
			}
			rank := tr.Find(tc.stages[len(tc.stages)-2])
			if rank.Rounds != 3 || rank.In != res.Edges || res.Edges == 0 || rank.Wall <= 0 {
				t.Fatalf("%s stage = %+v, want 3 rounds over %d edges", rank.Stage, rank, res.Edges)
			}
			fuse := tr.Find(StageFuse)
			matched := 0
			for _, m := range res.Matches {
				if m {
					matched++
				}
			}
			if fuse.Out != matched {
				t.Fatalf("fuse stage = %+v, want Out=%d", fuse, matched)
			}
		})
	}
}

func TestFuseCanceledRecordsPartialTrace(t *testing.T) {
	run0 := NewRun(context.Background(), RunOptions{Clock: fakeClock()})
	snap, err := Prepare(run0, testInputs(t, nil))
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	run := NewRun(ctx, RunOptions{Clock: fakeClock()})
	if _, err := Fuse(run, snap.Graph, snap.Corpus.NumRecords(), core.DefaultOptions()); err == nil {
		t.Fatalf("Fuse on a canceled context succeeded")
	}
	if run.Stages() == 0 {
		t.Errorf("canceled fuse recorded no stages; want a partial trace")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	cache := NewCache(1)
	a := &Snapshot{Key: "a"}
	b := &Snapshot{Key: "b"}
	cache.Add(a)
	cache.Add(b)
	if _, ok := cache.Lookup("a"); ok {
		t.Errorf("capacity-1 cache retained the evicted snapshot")
	}
	if _, ok := cache.Lookup("b"); !ok {
		t.Errorf("most recent snapshot missing")
	}
}

func TestFusionKeyIgnoresInstrumentation(t *testing.T) {
	a := core.DefaultOptions()
	b := a
	b.Workers = 7
	b.Clock = fakeClock()
	if fusionOptsSig(a) != fusionOptsSig(b) {
		t.Errorf("fusion signature depends on workers/clock, which cannot change the result")
	}
	c := a
	c.Seed = 42
	if fusionOptsSig(a) == fusionOptsSig(c) {
		t.Errorf("fusion signature ignores the seed")
	}
}

func TestPrepareDegradation(t *testing.T) {
	run := NewRun(context.Background(), RunOptions{Clock: fakeClock()})
	in := testInputs(t, nil)
	in.MaxPairs = 1
	snap, err := Prepare(run, in)
	if err != nil {
		t.Fatalf("Prepare: %v", err)
	}
	if snap.Degradation == nil {
		t.Fatalf("tiny budget triggered no degradation")
	}
	if snap.NumPairs() > in.MaxPairs {
		t.Errorf("budget violated: %d pairs > %d", snap.NumPairs(), in.MaxPairs)
	}
	blk := run.Trace().Find(StageBlock)
	if blk == nil || len(blk.Events) != len(snap.Degradation.Steps) {
		t.Errorf("degradation steps not mirrored into the block stage's events")
	}
}
