//go:build !race

// The race detector instruments allocation and inflates AllocsPerRun, so
// this allocation gate only runs in normal builds.

package engine

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/index"
)

// TestComponentFuseAllocs pins the allocations of fusing one small
// component through ComponentFuser, the path the resident collection's
// resolver and DeltaFuse take for every touched component. Each call runs
// a whole fusion (ITER's layout and vectors, the record graph, CliqueRank
// and the result), so its count multiplies by the components a resolve
// fuses. Over the 607 components of a 3,000-record synthetic corpus, with
// a nil cache so every call fuses, ITER's per-pair gather measured 78.0
// per component and the degree-bucketed layout, which takes its buffers
// from the run's arena, 57.5. The budget is the former: per-component
// fusion must not allocate more than it did.
func TestComponentFuseAllocs(t *testing.T) {
	const budget = 78
	in := testInputs(t, nil)
	in.Texts = dataset.GenSynthetic(dataset.SyntheticConfig{
		Seed: 1, Records: 3000, DuplicateRate: 0.3, VocabSize: 5000,
	}).Texts()
	in.Sources = make([]int, len(in.Texts))
	in.Blocking.CrossSourceOnly = false
	snap, err := Prepare(NewRun(context.Background(), RunOptions{}), in)
	if err != nil {
		t.Fatal(err)
	}
	g := snap.Graph
	part := core.PartitionComponents(g, snap.Corpus.NumRecords())
	var locals []*index.Graph
	for ci := range part.Comps {
		locals = append(locals, LocalizeComponent(g, part, ci))
	}
	if len(locals) < 20 {
		t.Fatalf("%d components, want at least 20", len(locals))
	}
	fuser := NewComponentFuser(NewRun(context.Background(), RunOptions{Workers: 1}), core.DefaultOptions(), nil)
	fuseAll := func() {
		for _, lg := range locals {
			if _, _, err := fuser.Fuse(lg); err != nil {
				t.Fatal(err)
			}
		}
	}
	fuseAll() // warm the run's arena
	perComponent := testing.AllocsPerRun(3, fuseAll) / float64(len(locals))
	t.Logf("%d components, %.1f allocations per fused component", len(locals), perComponent)
	if perComponent > budget {
		t.Errorf("fusing a component allocates %.1f times, budget %d", perComponent, budget)
	}
}
