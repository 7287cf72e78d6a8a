package er_test

// Robustness acceptance tests for the hardened execution layer: context
// cancellation latency, resource budgets with graceful degradation, the
// error taxonomy, degenerate inputs, and the adversarial dataset suite
// exercised against every scoring method.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	er "repro"
	"repro/internal/faultcheck"
)

func finite(t *testing.T, label string, v []float64) {
	t.Helper()
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			t.Fatalf("%s[%d] = %g is not finite", label, i, x)
		}
	}
}

func probabilities(t *testing.T, label string, v []float64) {
	t.Helper()
	finite(t, label, v)
	for i, x := range v {
		if x < 0 || x > 1 {
			t.Fatalf("%s[%d] = %g outside [0,1]", label, i, x)
		}
	}
}

func toRecords(rs []faultcheck.Record) []er.Record {
	out := make([]er.Record, len(rs))
	for i, r := range rs {
		out[i] = er.Record{Text: r.Text, Source: r.Source, Entity: r.Entity}
	}
	return out
}

// TestAdversarialCasesAllMethods runs every scoring method of the pipeline
// on every adversarial dataset of the fault-injection suite. No method may
// panic or emit a non-finite score, whatever the corpus shape.
func TestAdversarialCasesAllMethods(t *testing.T) {
	for _, tc := range faultcheck.Cases() {
		t.Run(tc.Name, func(t *testing.T) {
			d := er.NewDataset(tc.Name, toRecords(tc.Records))
			p := mustNewPipeline(t, d, er.DefaultOptions())
			methods := map[string]func() []float64{
				"jaccard":     p.Jaccard,
				"tfidf":       p.TFIDF,
				"soft-tfidf":  p.SoftTFIDF,
				"monge-elkan": p.MongeElkan,
				"simrank":     p.SimRank,
				"birank":      func() []float64 { s, _ := p.BiRank(); return s },
				"pagerank":    func() []float64 { s, _ := p.PageRank(); return s },
				"hybrid":      func() []float64 { return p.Hybrid(0.5) },
			}
			for name, method := range methods {
				scores := method()
				if len(scores) != p.NumCandidates() {
					t.Fatalf("%s: %d scores for %d candidates", name, len(scores), p.NumCandidates())
				}
				finite(t, name, scores)
			}
			out := mustFusion(t, p)
			finite(t, "term-weights", out.TermWeights)
			finite(t, "similarities", out.Similarities)
			probabilities(t, "probabilities", out.Probabilities)
			if out.NumericRepairs != 0 {
				t.Errorf("fusion needed %d numeric repairs", out.NumericRepairs)
			}
			res, err := er.Resolve(d, er.DefaultOptions())
			if err != nil {
				t.Fatalf("Resolve: %v", err)
			}
			seen := 0
			for _, c := range res.Clusters {
				seen += len(c)
			}
			if seen != d.NumRecords() {
				t.Fatalf("clusters cover %d of %d records", seen, d.NumRecords())
			}
		})
	}
}

// TestLoadCSVContextTaxonomy pins the LoadCSVContext error classification:
// malformed bytes wrap ErrBadData, cancellation mid-parse wraps the context
// cause, and a clean load matches LoadCSV. LoadCSV and LoadCSVFile, which
// the CLIs call, classify malformed input the same way.
func TestLoadCSVContextTaxonomy(t *testing.T) {
	good := "id,entity,source,text\n0,e0,0,alpha beta\n1,e0,0,alpha beta\n"
	d, err := er.LoadCSVContext(context.Background(), strings.NewReader(good), "ok")
	if err != nil || d.NumRecords() != 2 {
		t.Fatalf("clean load: d=%v err=%v", d, err)
	}

	const malformed = "\"unterminated quote\n"
	if _, err := er.LoadCSVContext(context.Background(),
		strings.NewReader(malformed), "bad"); !errors.Is(err, er.ErrBadData) {
		t.Fatalf("malformed csv: %v, want ErrBadData", err)
	}
	if _, err := er.LoadCSV(strings.NewReader(malformed), "bad"); !errors.Is(err, er.ErrBadData) {
		t.Fatalf("LoadCSV of malformed csv: %v, want ErrBadData", err)
	}
	path := filepath.Join(t.TempDir(), "bad.csv")
	if err := os.WriteFile(path, []byte(malformed), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := er.LoadCSVFile(path); !errors.Is(err, er.ErrBadData) {
		t.Fatalf("LoadCSVFile of malformed csv: %v, want ErrBadData", err)
	}
	frag := faultcheck.New(strings.NewReader(good), 1)
	if d2, err := er.LoadCSVContext(context.Background(), frag, "frag"); err != nil || d2.NumRecords() != 2 {
		t.Fatalf("fragmentation alone must be invisible: d=%v err=%v", d2, err)
	}
	broken := faultcheck.New(strings.NewReader(good), 1)
	broken.FailAfter = 12
	if _, err := er.LoadCSVContext(context.Background(), broken, "chaos"); !errors.Is(err, er.ErrBadData) {
		t.Fatalf("mid-stream read fault: %v, want ErrBadData", err)
	} else if !errors.Is(err, faultcheck.ErrInjected) {
		t.Fatalf("mid-stream read fault %v lost the injected cause", err)
	}

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := er.LoadCSVContext(canceled, strings.NewReader(good), "canceled"); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled load: %v, want context.Canceled", err)
	}
}

// TestResolveContextCanceledFast is the latency acceptance criterion:
// calling ResolveContext with an already-canceled context on the Paper
// replica must return an error wrapping context.Canceled in under 100ms.
func TestResolveContextCanceledFast(t *testing.T) {
	d := er.PaperReplica(er.ReplicaConfig{}) // generated outside the timed window
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := er.ResolveContext(ctx, d, er.DefaultOptions())
	elapsed := time.Since(start)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want error wrapping context.Canceled, got res=%v err=%v", res, err)
	}
	if elapsed > 100*time.Millisecond {
		t.Fatalf("canceled resolve took %s, want < 100ms", elapsed)
	}
}

// TestResolveContextCancelMidRun cancels while the fusion loop is running
// (from the Progress callback) and requires a prompt cooperative abort.
func TestResolveContextCancelMidRun(t *testing.T) {
	d := er.ProductReplica(er.ReplicaConfig{Scale: 0.3})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := er.DefaultOptions()
	opts.FusionIterations = 50
	opts.Progress = func(it int, s, p []float64, elapsed time.Duration) {
		if it == 1 {
			cancel()
		}
	}
	res, err := er.ResolveContext(ctx, d, opts)
	if res != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want error wrapping context.Canceled, got res=%v err=%v", res, err)
	}
}

// TestMaxWallClockBudget requires an expired wall-clock budget to surface
// as an error wrapping BOTH ErrBudgetExceeded and context.DeadlineExceeded.
func TestMaxWallClockBudget(t *testing.T) {
	d := er.ProductReplica(er.ReplicaConfig{Scale: 0.3})
	opts := er.DefaultOptions()
	opts.MaxWallClock = time.Nanosecond
	res, err := er.ResolveContext(context.Background(), d, opts)
	if res != nil || err == nil {
		t.Fatalf("want budget error, got res=%v err=%v", res, err)
	}
	if !errors.Is(err, er.ErrBudgetExceeded) {
		t.Fatalf("error %v does not wrap ErrBudgetExceeded", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// giantBlockRecords builds nBlocks blocks of identical records each, so
// blocking naturally emits nBlocks * size*(size-1)/2 candidate pairs that
// neither Jaccard tightening (within-block Jaccard is 1) nor the term-df
// cap (block size stays under the cap floor) can reduce.
func giantBlockRecords(nBlocks, size int) []er.Record {
	var out []er.Record
	for b := 0; b < nBlocks; b++ {
		text := fmt.Sprintf("blk%da blk%db blk%dc", b, b, b)
		for i := 0; i < size; i++ {
			out = append(out, er.Record{Text: text})
		}
	}
	return out
}

// TestMaxCandidatePairsTruncation is the degradation acceptance criterion:
// a budget smaller than the natural blocking output triggers the
// degradation path, populates the report, and still yields finite NaN-free
// probabilities within the budget.
func TestMaxCandidatePairsTruncation(t *testing.T) {
	d := er.NewDataset("giant", giantBlockRecords(40, 6)) // 40 * 15 = 600 natural pairs
	opts := er.DefaultOptions()
	opts.MaxCandidatePairs = 100
	res, err := er.ResolveContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation == nil {
		t.Fatal("budget exceeded but Degradation is nil")
	}
	dr := res.Degradation
	if dr.OriginalPairs != 600 {
		t.Errorf("OriginalPairs = %d, want 600", dr.OriginalPairs)
	}
	if dr.FinalPairs != 100 || len(res.Probabilities) != 100 {
		t.Errorf("FinalPairs = %d, probabilities = %d, want 100", dr.FinalPairs, len(res.Probabilities))
	}
	if dr.TruncatedPairs != 500 {
		t.Errorf("TruncatedPairs = %d, want 500", dr.TruncatedPairs)
	}
	if len(dr.Steps) == 0 {
		t.Error("degradation steps not narrated")
	}
	probabilities(t, "p", res.Probabilities)
}

// TestResultValuesAreCallerOwned pins the isolation between returned
// values and shared state: an entry of Pipeline.Trace() and a degraded
// Result.Degradation may be mutated by the caller without changing what a
// later call reports, even when the runs share one SnapshotCache.
func TestResultValuesAreCallerOwned(t *testing.T) {
	d := er.NewDataset("giant", giantBlockRecords(40, 6)) // 600 natural pairs
	opts := er.DefaultOptions()
	opts.MaxCandidatePairs = 100
	opts.Snapshots = er.NewSnapshotCache(0)

	p, err := er.NewPipelineContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Trace()
	if len(tr) == 0 {
		t.Fatal("pipeline trace is empty")
	}
	want := tr[0]
	tr[0].Stage, tr[0].Wall, tr[0].Out = "mutated", -1, -1
	if got := p.Trace()[0]; got.Stage != want.Stage || got.Wall != want.Wall || got.Out != want.Out {
		t.Errorf("Pipeline.Trace()[0] = %+v after mutating an earlier copy, want %+v", got, want)
	}

	first, err := er.ResolveContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Degradation == nil {
		t.Fatal("budget exceeded but Degradation is nil")
	}
	wantDeg := *first.Degradation
	*first.Degradation = er.DegradationReport{FinalPairs: -1}

	second, err := er.ResolveContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := opts.Snapshots.Stats(); st.Hits == 0 {
		t.Fatalf("runs did not share the snapshot: %+v", st)
	}
	if !reflect.DeepEqual(second.Degradation, &wantDeg) {
		t.Errorf("Degradation after mutating an earlier run's report = %+v, want %+v", second.Degradation, wantDeg)
	}
}

// TestMaxCandidatePairsTightening checks the graceful path: when parameter
// tightening alone reaches the budget, no truncation happens.
func TestMaxCandidatePairsTightening(t *testing.T) {
	// 40 blocks of 6 records sharing two block terms plus three unique
	// terms each: within-block Jaccard is 2/8 = 0.25, above the default
	// MinJaccard 0.2 but below the first tightening step 0.35, so one
	// tightening pass prunes every pair and truncation is never reached.
	var recs []er.Record
	for b := 0; b < 40; b++ {
		for i := 0; i < 6; i++ {
			id := b*6 + i
			recs = append(recs, er.Record{
				Text: fmt.Sprintf("b%dx b%dy u%da u%db u%dc", b, b, id, id, id),
			})
		}
	}
	d := er.NewDataset("tighten", recs)
	opts := er.DefaultOptions()
	opts.MaxCandidatePairs = 50
	res, err := er.ResolveContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation == nil {
		t.Fatal("budget exceeded but Degradation is nil")
	}
	if res.Degradation.TruncatedPairs != 0 {
		t.Errorf("tightening should have sufficed, truncated %d", res.Degradation.TruncatedPairs)
	}
	if got := len(res.Probabilities); got > 50 {
		t.Errorf("%d pairs exceed the budget of 50", got)
	}
	probabilities(t, "p", res.Probabilities)
}

// TestDegradationStepsOrdering pins the narration contract of
// DegradationReport.Steps: tightening steps come first, in the order they
// were attempted, with MinJaccard strictly increasing and MaxTermRecords
// strictly decreasing, and a truncation step — when present — is the
// single final entry. Downstream log consumers parse these strings, so
// their shape and order are part of the API.
func TestDegradationStepsOrdering(t *testing.T) {
	d := er.NewDataset("giant", giantBlockRecords(40, 6)) // 600 natural pairs
	opts := er.DefaultOptions()
	opts.MaxCandidatePairs = 1 // forces all four tightening attempts, then truncation
	res, err := er.ResolveContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Degradation == nil {
		t.Fatal("budget exceeded but Degradation is nil")
	}
	dr := res.Degradation
	// Identical records are immune to tightening (within-block Jaccard is
	// 1, block size is far below the term-df floor), so the engine must
	// exhaust all four tightening attempts and then truncate: five steps.
	if len(dr.Steps) != 5 {
		t.Fatalf("Steps = %q, want 4 tightening steps and 1 truncation", dr.Steps)
	}
	prevJaccard, prevTermRecords := opts.MinJaccard, math.MaxInt
	for i, step := range dr.Steps[:4] {
		var mj float64
		var mtr, pairs int
		if _, err := fmt.Sscanf(step, "tightened blocking to MinJaccard=%f MaxTermRecords=%d: %d pairs",
			&mj, &mtr, &pairs); err != nil {
			t.Fatalf("Steps[%d] = %q does not narrate a tightening: %v", i, step, err)
		}
		if mj <= prevJaccard {
			t.Errorf("Steps[%d]: MinJaccard %.2f not above previous %.2f", i, mj, prevJaccard)
		}
		if mtr >= prevTermRecords {
			t.Errorf("Steps[%d]: MaxTermRecords %d not below previous %d", i, mtr, prevTermRecords)
		}
		if pairs != dr.OriginalPairs {
			t.Errorf("Steps[%d]: narrated %d pairs, want the tightening-immune %d", i, pairs, dr.OriginalPairs)
		}
		prevJaccard, prevTermRecords = mj, mtr
	}
	// The final fields must match the narrated trajectory: tightening
	// never went past its caps, and the report reflects the last attempt.
	if dr.MinJaccard != prevJaccard || dr.MaxTermRecords != prevTermRecords {
		t.Errorf("report knobs (%.2f, %d) disagree with last narrated step (%.2f, %d)",
			dr.MinJaccard, dr.MaxTermRecords, prevJaccard, prevTermRecords)
	}
	var truncated, budget int
	if _, err := fmt.Sscanf(dr.Steps[4], "truncated %d pairs beyond the budget of %d",
		&truncated, &budget); err != nil {
		t.Fatalf("final step %q does not narrate a truncation: %v", dr.Steps[4], err)
	}
	if truncated != dr.TruncatedPairs || budget != opts.MaxCandidatePairs {
		t.Errorf("truncation step narrates (%d, %d), report says (%d, %d)",
			truncated, budget, dr.TruncatedPairs, opts.MaxCandidatePairs)
	}
}

// TestTruncatedPairsExactness cross-checks TruncatedPairs against an
// independent rebuild: resolving the same dataset with the final tightened
// knobs and no budget must yield exactly TruncatedPairs + budget
// candidates. This pins the accounting, not just the narration.
func TestTruncatedPairsExactness(t *testing.T) {
	recs := giantBlockRecords(12, 5) // 12 * 10 = 120 natural pairs
	d := er.NewDataset("giant", recs)
	opts := er.DefaultOptions()
	opts.MaxCandidatePairs = 7
	res, err := er.ResolveContext(context.Background(), d, opts)
	if err != nil {
		t.Fatal(err)
	}
	dr := res.Degradation
	if dr == nil {
		t.Fatal("budget exceeded but Degradation is nil")
	}
	if dr.FinalPairs != opts.MaxCandidatePairs || len(res.Probabilities) != opts.MaxCandidatePairs {
		t.Fatalf("FinalPairs = %d, probabilities = %d, want the budget %d",
			dr.FinalPairs, len(res.Probabilities), opts.MaxCandidatePairs)
	}
	// Rebuild with the report's final knobs, budget disabled: the candidate
	// count before truncation must equal FinalPairs + TruncatedPairs.
	rebuilt := er.DefaultOptions()
	rebuilt.MinJaccard = dr.MinJaccard
	rebuilt.MaxTermRecords = dr.MaxTermRecords
	p, err := er.NewPipelineContext(context.Background(), d, rebuilt)
	if err != nil {
		t.Fatal(err)
	}
	if want := p.NumCandidates() - opts.MaxCandidatePairs; dr.TruncatedPairs != want {
		t.Errorf("TruncatedPairs = %d, want %d (independent rebuild found %d pairs at the final knobs)",
			dr.TruncatedPairs, want, p.NumCandidates())
	}
	if dr.OriginalPairs != 120 {
		t.Errorf("OriginalPairs = %d, want 120", dr.OriginalPairs)
	}
	probabilities(t, "p", res.Probabilities)
}

// TestResolveErrorTaxonomy pins the sentinel for each rejection path.
func TestResolveErrorTaxonomy(t *testing.T) {
	if _, err := er.Resolve(nil, er.DefaultOptions()); !errors.Is(err, er.ErrNoRecords) {
		t.Errorf("nil dataset: %v, want ErrNoRecords", err)
	}
	empty := er.NewDataset("empty", nil)
	if _, err := er.Resolve(empty, er.DefaultOptions()); !errors.Is(err, er.ErrNoRecords) {
		t.Errorf("empty dataset: %v, want ErrNoRecords", err)
	}
	bad := er.DefaultOptions()
	bad.Eta = 3
	d := er.NewDataset("d", []er.Record{{Text: "a b"}, {Text: "a b"}})
	if _, err := er.Resolve(d, bad); !errors.Is(err, er.ErrInvalidOptions) {
		t.Errorf("invalid options: %v, want ErrInvalidOptions", err)
	}
	if _, err := er.NewPipelineContext(context.Background(), d, bad); !errors.Is(err, er.ErrInvalidOptions) {
		t.Errorf("NewPipelineContext invalid options: %v, want ErrInvalidOptions", err)
	}
}

// TestResolveDegenerateInputs: a single record and a zero-candidate dataset
// are valid empty results, not errors, and evaluation stays NaN-free.
func TestResolveDegenerateInputs(t *testing.T) {
	single := er.NewDataset("one", []er.Record{{Text: "only record", Entity: "e0"}})
	res, err := er.Resolve(single, er.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || len(res.Clusters) != 1 {
		t.Fatalf("single record: %d matches, %d clusters", len(res.Matches), len(res.Clusters))
	}

	disjoint := er.NewDataset("disjoint", []er.Record{
		{Text: "alpha beta", Entity: "e0"},
		{Text: "gamma delta", Entity: "e1"},
	})
	res, err = er.Resolve(disjoint, er.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || len(res.Probabilities) != 0 {
		t.Fatalf("disjoint records produced matches: %+v", res.Matches)
	}
	if res.Evaluation != nil {
		m := *res.Evaluation
		for _, v := range []float64{m.Precision, m.Recall, m.F1} {
			if math.IsNaN(v) {
				t.Fatalf("evaluation metric is NaN: %+v", m)
			}
		}
	}
}

// TestCheckCandidates pins the advisory sentinel for empty candidate sets.
func TestCheckCandidates(t *testing.T) {
	disjoint := er.NewDataset("disjoint", []er.Record{{Text: "aa bb"}, {Text: "cc dd"}})
	p := mustNewPipeline(t, disjoint, er.DefaultOptions())
	if err := p.CheckCandidates(); !errors.Is(err, er.ErrNoCandidates) {
		t.Errorf("CheckCandidates = %v, want ErrNoCandidates", err)
	}
	ok := er.NewDataset("ok", []er.Record{{Text: "aa bb"}, {Text: "aa bb"}})
	if err := mustNewPipeline(t, ok, er.DefaultOptions()).CheckCandidates(); err != nil {
		t.Errorf("CheckCandidates = %v, want nil", err)
	}
}

// TestResolveSeedZeroMatchesSeedOne pins the unified zero-value seed: a
// zero Seed must behave exactly like Seed 1 across the whole pipeline.
func TestResolveSeedZeroMatchesSeedOne(t *testing.T) {
	d := er.RestaurantReplica(er.ReplicaConfig{Scale: 0.2})
	a := er.DefaultOptions()
	a.Seed = 0
	b := er.DefaultOptions()
	b.Seed = 1
	ra, err := er.Resolve(d, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := er.Resolve(d, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Probabilities) != len(rb.Probabilities) {
		t.Fatal("candidate sets differ")
	}
	for i := range ra.Probabilities {
		if ra.Probabilities[i] != rb.Probabilities[i] {
			t.Fatalf("p[%d]: seed 0 gives %g, seed 1 gives %g", i, ra.Probabilities[i], rb.Probabilities[i])
		}
	}
}

// mustNewPipeline builds a pipeline and fails the test on error.
func mustNewPipeline(tb testing.TB, d *er.Dataset, opts er.Options) *er.Pipeline {
	tb.Helper()
	p, err := er.NewPipelineContext(context.Background(), d, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return p
}

// mustFusion runs the fusion loop and fails the test on error.
func mustFusion(tb testing.TB, p *er.Pipeline) *er.FusionOutcome {
	tb.Helper()
	out, err := p.FusionContext(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	return out
}
