package experiments

import (
	"context"
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
	replicas := map[DatasetName]func(er.ReplicaConfig) *er.Dataset{
		Restaurant: er.RestaurantReplica,
		Product:    er.ProductReplica,
		Paper:      er.PaperReplica,
	}
	for _, name := range AllDatasets {
		b, err := cfg.Bench(name)
		if err != nil {
			t.Fatalf("Bench(%s): %v", name, err)
		}
		d := replicas[name](er.ReplicaConfig{Seed: cfg.Seed, Scale: cfg.Scale})
		p, err := er.NewPipelineContext(context.Background(), d, cfg.options())
		if err != nil {
			t.Fatalf("Pipeline(%s): %v", name, err)
		}
		if b.SnapshotKey() != p.SnapshotKey() {
			t.Errorf("%s: harness snapshot key %s != pipeline key %s; the bench* option mappings drifted from er.Options'",
				name, b.SnapshotKey(), p.SnapshotKey())
		}
	}
}

// TestConfigSharesCaches exercises the harness's one reuse path: a second
// Bench on the same replica is served from Config.Cache and fuses to the
// same term weights.
func TestConfigSharesCaches(t *testing.T) {
	cfg := Config{Seed: 1, Scale: 0.1, Cache: engine.NewCache(2)}

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
