package er

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

func TestNewDataset(t *testing.T) {
	d := NewDataset("catalog", []Record{
		{Text: "sony turntable pslx350h", Entity: "a"},
		{Text: "sony pslx350h turntable", Entity: "a"},
		{Text: "pioneer receiver", Entity: "b", Source: 1},
	})
	if d.NumRecords() != 3 {
		t.Fatalf("NumRecords = %d", d.NumRecords())
	}
	if d.NumSources() != 2 {
		t.Errorf("NumSources = %d, want 2", d.NumSources())
	}
	if !d.HasGroundTruth() {
		t.Error("labeled dataset must report ground truth")
	}
	// Records 0,1 same entity, same source: with 2 sources only
	// cross-source pairs count; here (0,1) is same-source so 0 matches.
	if got := d.NumTrueMatches(); got != 0 {
		t.Errorf("NumTrueMatches = %d, want 0 (same-source pair excluded)", got)
	}
}

func TestNewDatasetWithoutLabels(t *testing.T) {
	d := NewDataset("x", []Record{{Text: "aa"}, {Text: "bb"}})
	if d.HasGroundTruth() {
		t.Error("unlabeled dataset must not report ground truth")
	}
}

func TestDatasetCSVRoundTrip(t *testing.T) {
	d := RestaurantReplica(ReplicaConfig{Seed: 3, Scale: 0.05})
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadCSV(strings.NewReader(buf.String()), "restaurant")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRecords() != d.NumRecords() || back.NumTrueMatches() != d.NumTrueMatches() {
		t.Error("CSV round trip changed the dataset")
	}
}

func TestReplicaConfigDefaults(t *testing.T) {
	// Zero-value config falls back to seed 1, scale 1.
	a := RestaurantReplica(ReplicaConfig{})
	b := RestaurantReplica(ReplicaConfig{Seed: 1, Scale: 1})
	if a.NumRecords() != b.NumRecords() || a.Text(0) != b.Text(0) {
		t.Error("zero-value ReplicaConfig must equal {Seed:1, Scale:1}")
	}
	if a.NumRecords() != 858 {
		t.Errorf("restaurant records = %d, want 858", a.NumRecords())
	}
}

func TestResolveQuickstartScenario(t *testing.T) {
	records := []Record{
		{Text: "sony turntable pslx350h belt drive audio"},
		{Text: "sony pslx350h turntable with dust cover audio"},
		{Text: "pioneer receiver vsx321 surround stereo"},
		{Text: "pioneer vsx321 receiver stereo black"},
		{Text: "canon powershot a590 camera digital"},
	}
	res, err := Resolve(NewDataset("catalog", records), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantPairs := map[[2]int]bool{{0, 1}: true, {2, 3}: true}
	if len(res.Matches) != 2 {
		t.Fatalf("matches = %v, want exactly the two duplicate pairs", res.Matches)
	}
	for _, m := range res.Matches {
		if !wantPairs[[2]int{m.I, m.J}] {
			t.Errorf("unexpected match %+v", m)
		}
		if m.Probability < DefaultOptions().Eta {
			t.Errorf("match below eta: %+v", m)
		}
	}
	if res.Evaluation != nil {
		t.Error("unlabeled dataset must not produce evaluation metrics")
	}
	// Clusters: {0,1}, {2,3}, {4}
	if len(res.Clusters) != 3 {
		t.Fatalf("clusters = %v", res.Clusters)
	}
	if len(res.Clusters[0]) != 2 || len(res.Clusters[2]) != 1 {
		t.Errorf("cluster shape wrong: %v", res.Clusters)
	}
}

func TestResolveReportsEvaluation(t *testing.T) {
	d := RestaurantReplica(ReplicaConfig{Seed: 1, Scale: 0.25})
	res, err := Resolve(d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluation == nil {
		t.Fatal("labeled dataset must produce evaluation metrics")
	}
	if res.Evaluation.F1 <= 0.5 {
		t.Errorf("replica F1 = %.3f, expected a working pipeline (> 0.5)", res.Evaluation.F1)
	}
	if res.GraphNodes != d.NumRecords() {
		t.Errorf("graph nodes = %d, want %d", res.GraphNodes, d.NumRecords())
	}
}

// TestResolveShardingBitIdentical pins the public contract of the
// per-component rank path: Resolve must reproduce the whole-graph
// core.RunFusion over the pipeline's candidate graph bit for bit —
// probabilities, matches and graph aggregates — at every worker count, and
// its clusters must not depend on the worker count. This is the end-to-end
// face of the core determinism suite.
func TestResolveShardingBitIdentical(t *testing.T) {
	d := ProductReplica(ReplicaConfig{Seed: 1, Scale: 0.25})
	p := mustNewPipeline(t, d, DefaultOptions())
	copts := DefaultOptions().coreOptions()
	copts.Workers = 1
	want, err := core.RunFusion(p.graph, d.NumRecords(), copts)
	if err != nil {
		t.Fatal(err)
	}
	var wantMatches []Match
	for k, m := range want.Matches {
		if m {
			i, j := p.CandidatePair(k)
			wantMatches = append(wantMatches, Match{I: i, J: j, Probability: want.P[k]})
		}
	}
	var wantClusters [][]int
	for _, w := range []int{1, 2, 4} {
		opts := DefaultOptions()
		opts.Workers = w
		got, err := Resolve(d, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got.GraphNodes != want.Nodes || got.GraphEdges != want.Edges {
			t.Fatalf("workers=%d: graph %d/%d, want %d/%d",
				w, got.GraphNodes, got.GraphEdges, want.Nodes, want.Edges)
		}
		if len(got.Probabilities) != len(want.P) {
			t.Fatalf("workers=%d: probabilities length %d != %d",
				w, len(got.Probabilities), len(want.P))
		}
		for i := range want.P {
			if math.Float64bits(got.Probabilities[i]) != math.Float64bits(want.P[i]) {
				t.Fatalf("workers=%d: p[%d] = %v, want %v", w, i, got.Probabilities[i], want.P[i])
			}
		}
		if !reflect.DeepEqual(got.Matches, wantMatches) {
			t.Fatalf("workers=%d: matches diverge from the whole-graph fusion", w)
		}
		if wantClusters == nil {
			wantClusters = got.Clusters
		} else if !reflect.DeepEqual(got.Clusters, wantClusters) {
			t.Fatalf("workers=%d: clusters diverge from the 1-worker run", w)
		}
	}
}

func TestPipelineScoreAlignment(t *testing.T) {
	d := ProductReplica(ReplicaConfig{Seed: 1, Scale: 0.1})
	p := mustNewPipeline(t, d, DefaultOptions())
	n := p.NumCandidates()
	if n == 0 {
		t.Fatal("no candidates")
	}
	for name, scores := range map[string][]float64{
		"jaccard": p.Jaccard(),
		"tfidf":   p.TFIDF(),
		"simrank": p.SimRank(),
		"hybrid":  p.Hybrid(0.5),
	} {
		if len(scores) != n {
			t.Errorf("%s returned %d scores, want %d", name, len(scores), n)
		}
	}
	pr, salience := p.PageRank()
	if len(pr) != n || len(salience) != p.NumTerms() {
		t.Errorf("pagerank alignment wrong: %d/%d", len(pr), len(salience))
	}
}

func TestPipelineMethodsOrderingOnProduct(t *testing.T) {
	// The paper's headline shape (Table II, Product column): the fusion
	// framework beats TF-IDF, which beats Jaccard.
	d := ProductReplica(ReplicaConfig{Seed: 1, Scale: 0.25})
	p := mustNewPipeline(t, d, DefaultOptions())
	out := mustFusion(t, p)
	fm, ok := p.EvaluateMatches(out.Matched)
	if !ok {
		t.Fatal("evaluation unavailable")
	}
	_, jm, _ := p.EvaluateScores(p.Jaccard())
	_, tm, _ := p.EvaluateScores(p.TFIDF())
	if !(fm.F1 > tm.F1 && tm.F1 > jm.F1) {
		t.Errorf("ordering violated: fusion %.3f, tfidf %.3f, jaccard %.3f", fm.F1, tm.F1, jm.F1)
	}
}

func TestPipelineTermWeightQuality(t *testing.T) {
	// Table IV shape: ITER's weights correlate with the score(t) oracle far
	// better than PageRank salience.
	d := ProductReplica(ReplicaConfig{Seed: 1, Scale: 0.2})
	p := mustNewPipeline(t, d, DefaultOptions())
	out := mustFusion(t, p)
	iterRho, ok := p.TermWeightQuality(out.TermWeights)
	if !ok {
		t.Fatal("no ground truth")
	}
	_, salience := p.PageRank()
	prRho, _ := p.TermWeightQuality(salience)
	if iterRho <= prRho {
		t.Errorf("ITER rho %.3f must exceed PageRank rho %.3f", iterRho, prRho)
	}
	// At this reduced scale most surviving candidate pairs are matches, so
	// the score(t) oracle is tie-heavy and rho is depressed; the ordering
	// against PageRank above is the substantive Table IV property, and the
	// full-scale values are reported by cmd/erbench.
	if iterRho < 0.25 {
		t.Errorf("ITER rho %.3f unexpectedly low", iterRho)
	}
}

func TestPipelineTermScoreSeries(t *testing.T) {
	d := RestaurantReplica(ReplicaConfig{Seed: 1, Scale: 0.2})
	p := mustNewPipeline(t, d, DefaultOptions())
	out := mustFusion(t, p)
	series, ok := p.TermScoreSeries(out.TermWeights)
	if !ok || len(series) == 0 {
		t.Fatal("no series")
	}
	// Figure 4 shape: the front decile of the ranking should carry a higher
	// mean score(t) than the back decile.
	k := len(series) / 10
	if k == 0 {
		k = 1
	}
	var front, back float64
	for i := 0; i < k; i++ {
		front += series[i]
		back += series[len(series)-1-i]
	}
	if front <= back {
		t.Errorf("front decile %f not above back decile %f", front/float64(k), back/float64(k))
	}
}

func TestOptionsUniversalAcrossBackends(t *testing.T) {
	// The RSS backend must agree with CliqueRank on a small replica.
	d := RestaurantReplica(ReplicaConfig{Seed: 1, Scale: 0.15})
	cr := mustNewPipeline(t, d, DefaultOptions())
	crOut := mustFusion(t, cr)
	crM, _ := cr.EvaluateMatches(crOut.Matched)

	opts := DefaultOptions()
	opts.UseRSS = true
	opts.RSSWalks = 50
	rs := mustNewPipeline(t, d, opts)
	rsOut := mustFusion(t, rs)
	rsM, _ := rs.EvaluateMatches(rsOut.Matched)

	if diff := crM.F1 - rsM.F1; diff > 0.25 || diff < -0.25 {
		t.Errorf("backends diverge: CliqueRank %.3f vs RSS %.3f", crM.F1, rsM.F1)
	}
}

func TestProgressCallbackThroughPublicAPI(t *testing.T) {
	d := RestaurantReplica(ReplicaConfig{Seed: 1, Scale: 0.1})
	opts := DefaultOptions()
	opts.FusionIterations = 3
	var iters []int
	opts.Progress = func(it int, s, p []float64, elapsed time.Duration) {
		iters = append(iters, it)
		if len(s) != len(p) {
			t.Error("misaligned callback slices")
		}
	}
	mustFusion(t, mustNewPipeline(t, d, opts))
	if len(iters) != 3 || iters[2] != 3 {
		t.Errorf("progress iterations = %v, want [1 2 3]", iters)
	}
}

func TestPipelineExtendedScorers(t *testing.T) {
	d := RestaurantReplica(ReplicaConfig{Seed: 1, Scale: 0.2})
	p := mustNewPipeline(t, d, DefaultOptions())
	soft := p.SoftTFIDF()
	me := p.MongeElkan()
	if len(soft) != p.NumCandidates() || len(me) != p.NumCandidates() {
		t.Fatal("extended scorers misaligned")
	}
	// Both must be usable with the threshold-sweep evaluator and do a
	// reasonable job on the replica.
	if _, m, ok := p.EvaluateScores(soft); !ok || m.F1 < 0.5 {
		t.Errorf("SoftTFIDF F1 = %.3f, want > 0.5", m.F1)
	}
	if _, m, ok := p.EvaluateScores(me); !ok || m.F1 < 0.5 {
		t.Errorf("MongeElkan F1 = %.3f, want > 0.5", m.F1)
	}
}

func TestL2NormalizationOption(t *testing.T) {
	d := RestaurantReplica(ReplicaConfig{Seed: 1, Scale: 0.15})
	opts := DefaultOptions()
	opts.L2Normalization = true
	p := mustNewPipeline(t, d, opts)
	out := mustFusion(t, p)
	var norm float64
	for _, x := range out.TermWeights {
		norm += x * x
	}
	if norm <= 0.5 || norm > 1.5 {
		t.Errorf("L2-normalized weights have squared norm %g, want ~1", norm)
	}
	if m, ok := p.EvaluateMatches(out.Matched); !ok || m.F1 < 0.5 {
		t.Errorf("L2 variant F1 = %.3f, want a working pipeline", m.F1)
	}
}

func TestBlockingRecall(t *testing.T) {
	d := ProductReplica(ReplicaConfig{Seed: 1, Scale: 0.2})
	p := mustNewPipeline(t, d, DefaultOptions())
	recall, ok := p.BlockingRecall()
	if !ok {
		t.Fatal("labeled replica must report blocking recall")
	}
	if recall <= 0.7 || recall > 1 {
		t.Errorf("blocking recall = %.3f, want in (0.7, 1]", recall)
	}
	// Blocking recall bounds every method's recall.
	out := mustFusion(t, p)
	if m, evalOK := p.EvaluateMatches(out.Matched); evalOK && m.Recall > recall+1e-9 {
		t.Errorf("fusion recall %.3f exceeds blocking ceiling %.3f", m.Recall, recall)
	}
	unlabeled := NewDataset("x", []Record{{Text: "aa bb"}, {Text: "aa bb"}})
	if _, ok := mustNewPipeline(t, unlabeled, DefaultOptions()).BlockingRecall(); ok {
		t.Error("unlabeled dataset must not report blocking recall")
	}
}

func TestTopTerms(t *testing.T) {
	d := ProductReplica(ReplicaConfig{Seed: 1, Scale: 0.15})
	p := mustNewPipeline(t, d, DefaultOptions())
	out := mustFusion(t, p)
	top := p.TopTerms(out.TermWeights, 5)
	if len(top) != 5 {
		t.Fatalf("TopTerms returned %d entries", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i].Weight > top[i-1].Weight {
			t.Error("TopTerms not sorted descending")
		}
	}
	all := p.TopTerms(out.TermWeights, 0)
	if len(all) < len(top) {
		t.Error("k=0 must return all weighted terms")
	}
}

func TestResolveDegenerateInputs(t *testing.T) {
	// A single record: no candidates, no matches, one singleton cluster.
	one := NewDataset("one", []Record{{Text: "hello world"}})
	res, err := Resolve(one, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || len(res.Clusters) != 1 {
		t.Errorf("unexpected result on single record: %+v", res)
	}

	// Records sharing nothing: empty candidate set end to end.
	disjoint := NewDataset("disjoint", []Record{
		{Text: "alpha beta"},
		{Text: "gamma delta"},
		{Text: "epsilon zeta"},
	})
	res, err = Resolve(disjoint, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 {
		t.Errorf("disjoint records produced matches: %+v", res.Matches)
	}
	if len(res.Clusters) != 3 {
		t.Errorf("clusters = %v, want 3 singletons", res.Clusters)
	}
}

func TestEvaluateClustersBCubed(t *testing.T) {
	d := RestaurantReplica(ReplicaConfig{Seed: 1, Scale: 0.2})
	p := mustNewPipeline(t, d, DefaultOptions())
	out := mustFusion(t, p)
	clusters := p.Clusters(out.Matched)
	m, ok := p.EvaluateClusters(clusters)
	if !ok {
		t.Fatal("labeled replica must evaluate clusters")
	}
	if m.F1 < 0.5 || m.F1 > 1 {
		t.Errorf("B-cubed F1 = %.3f out of expected range", m.F1)
	}
	// Perfect clustering from ground truth must score 1.
	gold := map[int][]int{}
	for i, r := range d.internal().Records {
		gold[r.EntityID] = append(gold[r.EntityID], i)
	}
	var perfect [][]int
	for _, g := range gold {
		perfect = append(perfect, g)
	}
	if m, _ := p.EvaluateClusters(perfect); m.F1 != 1 {
		t.Errorf("gold clustering B-cubed F1 = %.3f, want 1", m.F1)
	}
}

func TestPipelinePRCurveAndBiRank(t *testing.T) {
	d := ProductReplica(ReplicaConfig{Seed: 1, Scale: 0.15})
	p := mustNewPipeline(t, d, DefaultOptions())
	scores, salience := p.BiRank()
	if len(scores) != p.NumCandidates() || len(salience) != p.NumTerms() {
		t.Fatal("BiRank alignment wrong")
	}
	curve, ok := p.PRCurve(scores)
	if !ok || len(curve) == 0 {
		t.Fatal("PR curve unavailable")
	}
	best := 0.0
	for _, pt := range curve {
		if pt.F1 > best {
			best = pt.F1
		}
	}
	// The curve's best point must agree with EvaluateScores up to sweep
	// quantization.
	_, m, _ := p.EvaluateScores(scores)
	if best < m.F1-0.02 {
		t.Errorf("curve best F1 %.3f below sweep %.3f", best, m.F1)
	}
}

func TestExplain(t *testing.T) {
	records := []Record{
		{Text: "sony turntable pslx350h audio deck"},
		{Text: "sony pslx350h turntable dust audio"},
		{Text: "pioneer receiver vsx321 audio amp"},
		{Text: "pioneer vsx321 receiver audio black"},
	}
	d := NewDataset("catalog", records)
	p := mustNewPipeline(t, d, DefaultOptions())
	out := mustFusion(t, p)

	ex, ok := p.Explain(out, 0, 1)
	if !ok {
		t.Fatal("candidate pair must be explainable")
	}
	if ex.Probability < 0.9 {
		t.Errorf("duplicate pair probability = %g", ex.Probability)
	}
	if len(ex.SharedTerms) < 3 {
		t.Fatalf("shared terms = %v", ex.SharedTerms)
	}
	// The model code must rank above the corpus-wide "audio".
	rank := map[string]int{}
	for i, tw := range ex.SharedTerms {
		rank[tw.Term] = i
	}
	if rank["pslx350h"] > rank["audio"] {
		t.Errorf("model code ranked below stop word: %v", ex.SharedTerms)
	}
	if _, ok := p.Explain(out, 0, 3); ok {
		t.Error("non-candidate pair must not be explainable")
	}
	if rev, ok := p.Explain(out, 1, 0); !ok || rev.Similarity != ex.Similarity || rev.Probability != ex.Probability {
		t.Errorf("Explain(1, 0) = %+v, %v; want the pair of Explain(0, 1)", rev, ok)
	}
	for _, ij := range [][2]int{{0, 0}, {-1, 1}, {0, 4}} {
		if _, ok := p.Explain(out, ij[0], ij[1]); ok {
			t.Errorf("Explain(%d, %d) must not be explainable", ij[0], ij[1])
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Errorf("defaults must validate: %v", err)
	}
	bad := []func(*Options){
		func(o *Options) { o.Alpha = 0 },
		func(o *Options) { o.Steps = 0 },
		func(o *Options) { o.Eta = 1.5 },
		func(o *Options) { o.FusionIterations = 0 },
		func(o *Options) { o.MaxDFRatio = -0.1 },
		func(o *Options) { o.MinJaccard = 2 },
		func(o *Options) { o.UseRSS = true; o.RSSWalks = 1 },
	}
	for i, corrupt := range bad {
		o := DefaultOptions()
		corrupt(&o)
		if err := o.Validate(); err == nil {
			t.Errorf("case %d: invalid options passed validation", i)
		}
	}
}

func TestResolveConcurrentUse(t *testing.T) {
	// The library must be safe for concurrent resolution of independent
	// datasets (each pipeline owns its state; shared inputs are read-only).
	d := RestaurantReplica(ReplicaConfig{Seed: 1, Scale: 0.1})
	const workers = 4
	results := make([]float64, workers)
	done := make(chan int, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			res, err := Resolve(d, DefaultOptions())
			if err == nil && res.Evaluation != nil {
				results[w] = res.Evaluation.F1
			}
			done <- w
		}(w)
	}
	for i := 0; i < workers; i++ {
		<-done
	}
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatalf("concurrent runs diverged: %v", results)
		}
	}
}

func TestOptionsStopwords(t *testing.T) {
	d := NewDataset("x", []Record{
		{Text: "acme corp turbo x100"},
		{Text: "acme corp turbo x100 deluxe"},
	})
	opts := DefaultOptions()
	opts.Stopwords = []string{"corp"}
	p := mustNewPipeline(t, d, opts)
	for i := 0; i < p.NumTerms(); i++ {
		if p.Term(i) == "corp" {
			t.Error("stopword survived preprocessing")
		}
	}
}

// TestFusionContextWallClock pins the staged-API budget: MaxWallClock must
// bound Pipeline.FusionContext itself, not only ResolveContext (regression:
// the CLI's staged path once dropped the budget after construction). The
// pipeline is built without a budget so construction cannot trip it.
func TestFusionContextWallClock(t *testing.T) {
	d := ProductReplica(ReplicaConfig{Scale: 0.3})
	p := mustNewPipeline(t, d, DefaultOptions())
	budgeted := *p
	budgeted.opts.MaxWallClock = time.Nanosecond
	if _, err := budgeted.FusionContext(context.Background()); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("FusionContext under an expired budget returned %v, want ErrBudgetExceeded", err)
	}
	if out := mustFusion(t, p); len(out.Probabilities) != p.NumCandidates() {
		t.Fatal("FusionContext without a budget must complete")
	}
}

// TestSnapshotKeyWithoutCache pins the lazily computed snapshot key: a
// pipeline built without Options.Snapshots derives its key on the first
// SnapshotKey call, and it must equal the key a cached build stores, on a
// miss and on a hit; a second call returns the same string.
func TestSnapshotKeyWithoutCache(t *testing.T) {
	d := RestaurantReplica(ReplicaConfig{Scale: 0.2})
	opts := DefaultOptions()
	bare := mustNewPipeline(t, d, opts)
	opts.Snapshots = NewSnapshotCache(0)
	miss := mustNewPipeline(t, d, opts)
	hit := mustNewPipeline(t, d, opts)
	if st := opts.Snapshots.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want one miss then one hit", st)
	}
	key := bare.SnapshotKey()
	if key == "" || key != miss.SnapshotKey() || key != hit.SnapshotKey() {
		t.Fatalf("snapshot keys differ: no cache %q, cache miss %q, cache hit %q", key, miss.SnapshotKey(), hit.SnapshotKey())
	}
	if again := bare.SnapshotKey(); again != key {
		t.Fatalf("second SnapshotKey call returned %q, first %q", again, key)
	}
}

// TestReplicaF1Pinned pins the pairwise F1 of the default pipeline on the
// three published-scale replicas. Semantic changes to blocking or fusion
// must move these values knowingly, not as a side effect of a refactor.
func TestReplicaF1Pinned(t *testing.T) {
	cfg := ReplicaConfig{Seed: 1}
	for _, tc := range []struct {
		name string
		d    *Dataset
		want float64
	}{
		{"restaurant", RestaurantReplica(cfg), 0.823529},
		{"product", ProductReplica(cfg), 0.915438},
		{"paper", PaperReplica(cfg), 0.868965},
	} {
		res, err := Resolve(tc.d, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := res.Evaluation.F1; math.Abs(got-tc.want) > 0.005 {
			t.Errorf("%s: F1 = %.6f, want %.6f ± 0.005", tc.name, got, tc.want)
		}
	}
}

// mustNewPipeline builds a pipeline and fails the test on error.
func mustNewPipeline(t *testing.T, d *Dataset, opts Options) *Pipeline {
	t.Helper()
	p, err := NewPipelineContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// mustFusion runs the fusion loop and fails the test on error.
func mustFusion(t *testing.T, p *Pipeline) *FusionOutcome {
	t.Helper()
	out, err := p.FusionContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return out
}
