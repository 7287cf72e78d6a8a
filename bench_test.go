package er_test

// Benchmark harness: one benchmark family per table and figure of the
// paper's evaluation section, plus the ablation benches called out in
// DESIGN.md §4. Benchmarks run the replicas at benchScale so the whole
// suite stays fast on one core; cmd/erbench regenerates the tables at the
// published sizes (-scale 1.0).
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/experiments"
)

const benchScale = 0.25

func benchConfig() experiments.Config {
	return experiments.Config{Seed: 1, Scale: benchScale}
}

// reportF1 attaches an F1 value to the benchmark output.
func reportF1(b *testing.B, name string, f1 float64) {
	b.ReportMetric(f1, name+"-F1")
}

// mustBench prepares the engine-backed harness for the named replica.
func mustBench(b *testing.B, cfg experiments.Config, name experiments.DatasetName) *experiments.Bench {
	b.Helper()
	bench, err := cfg.Bench(name)
	if err != nil {
		b.Fatal(err)
	}
	return bench
}

// BenchmarkTable2 regenerates the Table II F1 comparison (all implemented
// methods on all replicas).
func BenchmarkTable2(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Table2Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiments.RunTable2(cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, method := range []string{"Jaccard", "TF-IDF", "SimRank", "PageRank", "Hybrid", "ITER+CliqueRank"} {
		if row := res.Row(method); row != nil {
			b.ReportMetric(row.Product.Measured, method+"/Product-F1")
		}
	}
}

// BenchmarkTable2PerMethod measures each method's scoring cost in isolation
// on the Product replica (the paper's hardest string-similarity case).
func BenchmarkTable2PerMethod(b *testing.B) {
	d := er.ProductReplica(er.ReplicaConfig{Seed: 1, Scale: benchScale})
	p := mustNewPipeline(b, d, er.DefaultOptions())
	b.Run("Jaccard", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Jaccard()
		}
	})
	b.Run("TFIDF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.TFIDF()
		}
	})
	b.Run("SimRank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.SimRank()
		}
	})
	b.Run("PageRank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.PageRank()
		}
	})
	b.Run("ITERCliqueRank", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustFusion(b, p)
		}
	})
}

// BenchmarkTable3 regenerates the Table III efficiency breakdown, reporting
// the measured CliqueRank-over-RSS speedups.
func BenchmarkTable3(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Table3Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiments.RunTable3(cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range res.Rows {
		b.ReportMetric(row.Speedup, string(row.Dataset)+"-RSS-speedup")
		b.ReportMetric(float64(row.GraphEdges), string(row.Dataset)+"-edges")
	}
}

// BenchmarkTable4 regenerates the Table IV Spearman comparison.
func BenchmarkTable4(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Table4Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiments.RunTable4(cfg); err != nil {
			b.Fatal(err)
		}
	}
	for di, name := range experiments.AllDatasets {
		b.ReportMetric(res.ITER[di].Measured, string(name)+"-ITER-rho")
		b.ReportMetric(res.PageRank[di].Measured, string(name)+"-PageRank-rho")
	}
}

// BenchmarkTable5 regenerates the Table V reinforcement study.
func BenchmarkTable5(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Table5Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiments.RunTable5(cfg); err != nil {
			b.Fatal(err)
		}
	}
	first := res.Iterations[0]
	last := res.Iterations[len(res.Iterations)-1]
	for di, name := range experiments.AllDatasets {
		b.ReportMetric(first.F1[di].Measured, string(name)+"-iter1-F1")
		b.ReportMetric(last.F1[di].Measured, fmt.Sprintf("%s-iter%d-F1", name, last.Iteration))
	}
}

// BenchmarkFigure4 regenerates the Figure 4 ranked score(t) series and
// reports the front/back decile means (the figure's quantitative claim).
func BenchmarkFigure4(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiments.RunFigure4(cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		front, back := s.FrontBackMeans()
		b.ReportMetric(front, string(s.Dataset)+"-front-decile")
		b.ReportMetric(back, string(s.Dataset)+"-back-decile")
	}
}

// BenchmarkFigure5 regenerates the Figure 5 convergence traces and reports
// peak and final update magnitudes.
func BenchmarkFigure5(b *testing.B) {
	cfg := benchConfig()
	var res *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = experiments.RunFigure5(cfg); err != nil {
			b.Fatal(err)
		}
	}
	for _, s := range res.Series {
		peak := 0.0
		for _, v := range s.Updates {
			if v > peak {
				peak = v
			}
		}
		b.ReportMetric(peak, string(s.Dataset)+"-peak-update")
		if n := len(s.Updates); n > 0 {
			b.ReportMetric(s.Updates[n-1], string(s.Dataset)+"-final-update")
		}
	}
}

// benchAblation runs the fusion stages on the Product replica with
// modified core options and reports the F1.
func benchAblation(b *testing.B, modify func(*core.Options)) {
	cfg := benchConfig()
	bench := mustBench(b, cfg, experiments.Product)
	var f1 float64
	for i := 0; i < b.N; i++ {
		res, _, err := bench.Fusion(modify)
		if err != nil {
			b.Fatal(err)
		}
		if m, ok := bench.EvaluateMatches(res.Matches); ok {
			f1 = m.F1
		}
	}
	reportF1(b, "ablated", f1)
}

// BenchmarkAblationAlpha ablates the non-linear transition exponent
// (DESIGN.md ablation 1): α = 1 makes the walk linear and leaky.
func BenchmarkAblationAlpha(b *testing.B) {
	b.Run("alpha=20", func(b *testing.B) { benchAblation(b, nil) })
	b.Run("alpha=5", func(b *testing.B) { benchAblation(b, func(o *core.Options) { o.Alpha = 5 }) })
	b.Run("alpha=1", func(b *testing.B) { benchAblation(b, func(o *core.Options) { o.Alpha = 1 }) })
}

// BenchmarkAblationBonus disables the Eq. 12 target boosting (ablation 2);
// the recall loss concentrates in the Paper replica's big cliques, so this
// one runs there.
func BenchmarkAblationBonus(b *testing.B) {
	cfg := benchConfig()
	bench := mustBench(b, cfg, experiments.Paper)
	run := func(b *testing.B, disable bool) {
		var f1 float64
		for i := 0; i < b.N; i++ {
			res, _, err := bench.Fusion(func(o *core.Options) { o.DisableBonus = disable })
			if err != nil {
				b.Fatal(err)
			}
			if m, ok := bench.EvaluateMatches(res.Matches); ok {
				f1 = m.F1
			}
		}
		reportF1(b, "paper", f1)
	}
	b.Run("with-bonus", func(b *testing.B) { run(b, false) })
	b.Run("without-bonus", func(b *testing.B) { run(b, true) })
}

// BenchmarkAblationMask disables the ⊙ M_n early-stop masking (ablation 3).
func BenchmarkAblationMask(b *testing.B) {
	b.Run("masked", func(b *testing.B) { benchAblation(b, nil) })
	b.Run("unmasked", func(b *testing.B) { benchAblation(b, func(o *core.Options) { o.DisableMask = true }) })
}

// BenchmarkAblationDenominator drops the P_t punishment of Eq. 6
// (ablation 4), degrading ITER toward PageRank-style accumulation.
func BenchmarkAblationDenominator(b *testing.B) {
	b.Run("with-Pt", func(b *testing.B) { benchAblation(b, nil) })
	b.Run("without-Pt", func(b *testing.B) {
		benchAblation(b, func(o *core.Options) { o.DisableDenominator = true })
	})
}

// BenchmarkCliqueRankVsRSS compares the two matching-probability estimators
// head-to-head on one prepared record graph per dataset.
func BenchmarkCliqueRankVsRSS(b *testing.B) {
	cfg := benchConfig()
	for _, name := range experiments.AllDatasets {
		bench := mustBench(b, cfg, name)
		opts := bench.CoreOptions()
		// One fusion round yields the first-round similarities (ITER on the
		// all-ones prior), from which the first-round record graph is built.
		fres, _, err := bench.Fusion(func(o *core.Options) { o.FusionIterations = 1 })
		if err != nil {
			b.Fatal(err)
		}
		rg := core.BuildRecordGraph(bench.Graph(), fres.S, bench.Corpus().NumRecords())
		b.Run("CliqueRank/"+string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.CliqueRank(rg, opts)
			}
		})
		b.Run("RSS/"+string(name), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.RSS(rg, opts)
			}
		})
	}
}

// BenchmarkResolveEndToEnd measures the full public-API path per replica.
func BenchmarkResolveEndToEnd(b *testing.B) {
	for _, tc := range []struct {
		name string
		gen  func(er.ReplicaConfig) *er.Dataset
	}{
		{"Restaurant", er.RestaurantReplica},
		{"Product", er.ProductReplica},
		{"Paper", er.PaperReplica},
	} {
		d := tc.gen(er.ReplicaConfig{Seed: 1, Scale: benchScale})
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := er.Resolve(d, er.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFusionSharded100k measures the component-sharded fusion path
// (the er default) on a 100000-record synthetic corpus across worker
// counts. The corpus and its blocked candidate graph are shared across the
// sub-benchmarks through a snapshot cache — the snapshot key is
// worker-independent — so only the fusion stages are measured. Two fusion
// iterations bound the op time; the scores are bit-identical at every
// worker count (TestResolveShardingBitIdentical), so the workers=N samples
// are directly comparable. Skipped under -short: generation plus first
// blocking cost ~20s.
func BenchmarkFusionSharded100k(b *testing.B) {
	if testing.Short() {
		b.Skip("100k corpus setup is seconds-scale; skipped under -short")
	}
	d := er.SyntheticDataset(er.SyntheticConfig{
		Records:       100000,
		DuplicateRate: 0.3,
		VocabSize:     50000,
	})
	cache := er.NewSnapshotCache(2)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := er.DefaultOptions()
			opts.Workers = w
			opts.FusionIterations = 2
			opts.Snapshots = cache
			p := mustNewPipeline(b, d, opts)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mustFusion(b, p)
			}
		})
	}
}

// BenchmarkResolveStages measures the full pipeline per replica and
// reports each stage's wall time from the engine trace as a stage-*-ms
// metric.
func BenchmarkResolveStages(b *testing.B) {
	for _, tc := range []struct {
		name string
		gen  func(er.ReplicaConfig) *er.Dataset
	}{
		{"Restaurant", er.RestaurantReplica},
		{"Product", er.ProductReplica},
		{"Paper", er.PaperReplica},
	} {
		d := tc.gen(er.ReplicaConfig{Seed: 1, Scale: benchScale})
		b.Run(tc.name, func(b *testing.B) {
			var res *er.Result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = er.Resolve(d, er.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
			for _, st := range res.Trace {
				b.ReportMetric(float64(st.Wall)/float64(time.Millisecond), "stage-"+st.Stage+"-ms")
			}
		})
	}
}

// BenchmarkCollectionWarmResolve measures the warm path of the public
// Collection: a resident collection of the 100k synthetic corpus (4k under
// -short) takes one seeded overwrite per iteration — a live record gets
// another record's text, a true duplicate — and resolves. It reports B/op
// and allocs/op, and each stage of Result.Trace as a stage-*-ms mean.
func BenchmarkCollectionWarmResolve(b *testing.B) {
	n := 100000
	if testing.Short() {
		n = 4000
	}
	d := er.SyntheticDataset(er.SyntheticConfig{Records: n, DuplicateRate: 0.3, VocabSize: 50000})
	col, err := er.NewCollection(er.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	id := func(i int) string { return fmt.Sprintf("r%06d", i) }
	for i := 0; i < n; i++ {
		col.Upsert(id(i), er.Record{Text: d.Text(i)})
	}
	if _, err := col.Resolve(); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	stages := make(map[string]time.Duration)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Upsert(id(rng.Intn(n)), er.Record{Text: d.Text(rng.Intn(n))})
		res, err := col.Resolve()
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range res.Trace {
			stages[st.Stage] += st.Wall
		}
	}
	b.StopTimer()
	for s, wall := range stages {
		b.ReportMetric(float64(wall)/float64(time.Millisecond)/float64(b.N), "stage-"+s+"-ms")
	}
}

// BenchmarkCollectionLoad measures how a resident Collection is built: a
// fresh collection takes one Upsert per record of a 20000-record synthetic
// corpus (the size of erserve's resolver rebuild in the serve benchmark),
// then pays the cold Resolve. It reports the two phases as load-ms and
// resolve-ms; the corpus is generated outside the timer. The ascending
// case upserts in external-ID order, as erserve's rebuild does; the
// shuffled case upserts the same records in a seeded random order.
func BenchmarkCollectionLoad(b *testing.B) {
	const n = 20000
	d := er.SyntheticDataset(er.SyntheticConfig{Records: n, DuplicateRate: 0.3, VocabSize: 50000})
	ids := make([]string, n)
	ascending := make([]int, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("r%06d", i)
		ascending[i] = i
	}
	shuffled := rand.New(rand.NewSource(1)).Perm(n)
	for _, bc := range []struct {
		name  string
		order []int
	}{{"ascending", ascending}, {"shuffled", shuffled}} {
		b.Run(bc.name, func(b *testing.B) {
			var load, resolve time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				col, err := er.NewCollection(er.DefaultOptions())
				if err != nil {
					b.Fatal(err)
				}
				start := time.Now()
				for _, j := range bc.order {
					col.Upsert(ids[j], er.Record{Text: d.Text(j)})
				}
				mid := time.Now()
				if _, err := col.Resolve(); err != nil {
					b.Fatal(err)
				}
				load += mid.Sub(start)
				resolve += time.Since(mid)
			}
			b.ReportMetric(float64(load)/float64(time.Millisecond)/float64(b.N), "load-ms")
			b.ReportMetric(float64(resolve)/float64(time.Millisecond)/float64(b.N), "resolve-ms")
		})
	}
}
