package index_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/index"
	"repro/internal/textproc"
)

// TestLocalizeComponentLayout runs the layout check on every component
// graph engine.LocalizeComponent cuts from a batch graph. It lives in the
// external test package because engine imports index.
func TestLocalizeComponentLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	texts := make([]string, 200)
	for i := range texts {
		e := i / 3
		texts[i] = fmt.Sprintf("brand%d model%d w%d w%d w%d", e, e, rng.Intn(40), rng.Intn(400), rng.Intn(400))
	}
	c := textproc.BuildCorpus(texts, textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()})
	g, err := index.BuildGraph(c, nil, index.BatchOptions{MinSharedTerms: 2})
	if err != nil {
		t.Fatal(err)
	}
	part := core.PartitionComponents(g, g.NumRecords)
	if len(part.Comps) < 10 {
		t.Fatalf("only %d components", len(part.Comps))
	}
	for ci := range part.Comps {
		lg := engine.LocalizeComponent(g, part, ci)
		if err := index.CheckLayout(lg); err != nil {
			t.Fatalf("component %d: %v", ci, err)
		}
		if lg.NumPairs() != len(part.Comps[ci].Pairs) {
			t.Fatalf("component %d: %d local pairs, %d global", ci, lg.NumPairs(), len(part.Comps[ci].Pairs))
		}
	}
}
