package core

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/index"
	"repro/internal/textproc"
)

// benchGraph builds a moderately sized candidate structure from synthetic
// texts: 60 duplicate pairs over shared code terms plus noise records.
func benchGraph(b *testing.B) (*textproc.Corpus, *index.Graph) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	var texts []string
	for e := 0; e < 60; e++ {
		code := "cd" + string(rune('a'+e%26)) + string(rune('0'+e%10)) + string(rune('a'+(e/26)%26))
		common := words[rng.Intn(len(words))] + " " + words[rng.Intn(len(words))]
		texts = append(texts, code+" "+common+" red", code+" "+common+" blue")
	}
	for s := 0; s < 80; s++ {
		texts = append(texts,
			words[rng.Intn(len(words))]+" "+words[rng.Intn(len(words))]+" solo"+string(rune('a'+s%26)))
	}
	c := textproc.BuildCorpus(texts, textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()})
	g, err := index.BuildGraph(c, nil, index.BatchOptions{MinSharedTerms: 2})
	if err != nil {
		b.Fatal(err)
	}
	if g.NumPairs() == 0 {
		b.Fatal("bench graph has no candidates")
	}
	return c, g
}

// batchShapedGraph is the candidate graph of the batch scale benchmark's
// corpus: the 100k-record synthetic corpus (4k under -short), tokenized
// and blocked with er's default options.
func batchShapedGraph(b *testing.B) *index.Graph {
	b.Helper()
	records := 100000
	if testing.Short() {
		records = 4000
	}
	texts := dataset.GenSynthetic(dataset.SyntheticConfig{
		Seed: 1, Records: records, DuplicateRate: 0.3, VocabSize: 50000,
	}).Texts()
	c := textproc.BuildCorpus(texts, textproc.CorpusOptions{
		Tokenize: textproc.DefaultTokenizeOptions(), MaxDFRatio: 0.12,
	})
	g, err := index.BuildGraph(c, nil, index.BatchOptions{MinSharedTerms: 2, MinJaccard: 0.2})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkRunITER times one ITER call with p = 1: on the small synthetic
// graph, and on the batch-shaped graph, whose pairs carry 1–40 terms and
// whose terms span up to thousands of pairs.
func BenchmarkRunITER(b *testing.B) {
	run := func(b *testing.B, g *index.Graph) {
		p := onesP(g)
		opts := DefaultOptions()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			RunITER(g, p, opts, rand.New(rand.NewSource(1)))
		}
	}
	b.Run("small", func(b *testing.B) {
		_, g := benchGraph(b)
		run(b, g)
	})
	b.Run("batch", func(b *testing.B) { run(b, batchShapedGraph(b)) })
}

func BenchmarkCliqueRankSteps(b *testing.B) {
	_, g := benchGraph(b)
	opts := DefaultOptions()
	iter := RunITER(g, onesP(g), opts, rand.New(rand.NewSource(1)))
	rg := BuildRecordGraph(g, iter.S, g.NumRecords)
	for _, steps := range []int{5, 20, 40} {
		o := opts
		o.Steps = steps
		b.Run(map[int]string{5: "S=5", 20: "S=20", 40: "S=40"}[steps], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CliqueRank(rg, o)
			}
		})
	}
}

func BenchmarkRSSWalks(b *testing.B) {
	_, g := benchGraph(b)
	opts := DefaultOptions()
	iter := RunITER(g, onesP(g), opts, rand.New(rand.NewSource(1)))
	rg := BuildRecordGraph(g, iter.S, g.NumRecords)
	for _, m := range []int{10, 50} {
		o := opts
		o.RSSWalks = m
		b.Run(map[int]string{10: "M=10", 50: "M=50"}[m], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				RSS(rg, o)
			}
		})
	}
}

func BenchmarkBuildRecordGraph(b *testing.B) {
	_, g := benchGraph(b)
	iter := RunITER(g, onesP(g), DefaultOptions(), rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildRecordGraph(g, iter.S, g.NumRecords)
	}
}

func BenchmarkRunFusion(b *testing.B) {
	_, g := benchGraph(b)
	opts := DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunFusion(g, g.NumRecords, opts); err != nil {
			b.Fatal(err)
		}
	}
}
