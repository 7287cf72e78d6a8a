package experiments

import (
	"testing"

	"repro"
	"repro/internal/engine"
)

// TestBenchSnapshotKeyMatchesPipeline pins the harness's duplicated
// option mappings (benchCorpusOptions, benchBlockingOptions) to the root
// package's unexported conversions: if either side drifts, the snapshot
// keys diverge and engine-level caches stop being shared with
// pipeline-level ones.
func TestBenchSnapshotKeyMatchesPipeline(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.1}
	for _, name := range AllDatasets {
		b, err := cfg.Bench(name)
		if err != nil {
			t.Fatalf("Bench(%s): %v", name, err)
		}
		p, err := cfg.Pipeline(name)
		if err != nil {
			t.Fatalf("Pipeline(%s): %v", name, err)
		}
		if b.SnapshotKey() != p.SnapshotKey() {
			t.Errorf("%s: harness snapshot key %s != pipeline key %s; the bench* option mappings drifted from er.Options'",
				name, b.SnapshotKey(), p.SnapshotKey())
		}
	}
}

// TestConfigSharesCaches exercises both reuse paths of a configured
// experiment run: the pipeline-level snapshot cache and the engine-level
// harness cache of prepared snapshots.
func TestConfigSharesCaches(t *testing.T) {
	cfg := Config{
		Seed:      1,
		Scale:     0.1,
		Snapshots: er.NewSnapshotCache(2),
		Cache:     engine.NewCache(2),
	}

	p1, err := cfg.Pipeline(Restaurant)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cfg.Pipeline(Restaurant)
	if err != nil {
		t.Fatal(err)
	}
	if p1.SnapshotKey() != p2.SnapshotKey() {
		t.Fatalf("same config produced different snapshot keys")
	}
	for _, st := range p2.Trace() {
		if !st.Cached {
			t.Errorf("second pipeline recomputed stage %s; want a snapshot-cache hit", st.Stage)
		}
	}
	if stats := cfg.Snapshots.Stats(); stats.Hits < 1 {
		t.Errorf("snapshot cache stats = %+v, want at least one hit", stats)
	}

	b1, err := cfg.Bench(Restaurant)
	if err != nil {
		t.Fatal(err)
	}
	w1, err := b1.FusionWeights()
	if err != nil {
		t.Fatal(err)
	}
	before := cfg.Cache.Stats().Hits
	b2, err := cfg.Bench(Restaurant)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := b2.FusionWeights()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Cache.Stats().Hits <= before {
		t.Errorf("second harness did not hit the engine cache")
	}
	if len(w1) != len(w2) {
		t.Fatalf("weights length changed across cache reuse: %d vs %d", len(w1), len(w2))
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatalf("cached weights diverge at term %d: %v vs %v", i, w1[i], w2[i])
		}
	}
}
