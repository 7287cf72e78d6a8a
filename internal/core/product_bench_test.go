package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/index"
	"repro/internal/textproc"
)

// productScaleGraph builds a candidate structure at the scale of the Product
// (abt × buy) benchmark replica: ~2100 records in two-record entities, each
// carrying an entity-specific model code plus common vocabulary that wires
// the record graph together, and a band of noise records. The corpus is
// fully seeded, so every benchmark and determinism test sees the same graph.
func productScaleGraph(tb testing.TB) (*textproc.Corpus, *index.Graph) {
	tb.Helper()
	rng := rand.New(rand.NewSource(7))
	common := make([]string, 40)
	for i := range common {
		common[i] = "word" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	colors := []string{"red", "blue", "green", "black", "white", "silver",
		"gray", "gold", "pink", "cyan", "brown", "olive"}
	var texts []string
	code := func(e int) string {
		return "md" + string(rune('a'+e%26)) + string(rune('a'+(e/26)%26)) +
			string(rune('a'+(e/676)%26)) + string(rune('0'+e%10))
	}
	for e := 0; e < 1050; e++ {
		c := code(e)
		w1, w2, w3 := common[rng.Intn(40)], common[rng.Intn(40)], common[rng.Intn(40)]
		texts = append(texts,
			c+" "+w1+" "+w2+" "+w3+" "+colors[rng.Intn(len(colors))],
			c+" "+w1+" "+w2+" "+w3+" "+colors[rng.Intn(len(colors))])
	}
	for s := 0; s < 300; s++ {
		texts = append(texts,
			common[rng.Intn(40)]+" "+common[rng.Intn(40)]+" solo"+code(s))
	}
	c := textproc.BuildCorpus(texts, textproc.CorpusOptions{Tokenize: textproc.DefaultTokenizeOptions()})
	g, err := index.BuildGraph(c, nil, index.BatchOptions{MinSharedTerms: 3, MaxTermRecords: 220})
	if err != nil {
		tb.Fatal(err)
	}
	if g.NumPairs() < 1024 {
		tb.Fatalf("product-scale graph too small: %d pairs", g.NumPairs())
	}
	return c, g
}

// benchWorkers are the fan-outs every product-scale benchmark reports, so
// BENCH_core.json can state the speedup of each worker count against the
// serial baseline of the same binary.
var benchWorkers = []int{1, 2, 4}

func BenchmarkITERProduct(b *testing.B) {
	_, g := productScaleGraph(b)
	p := make([]float64, g.NumPairs())
	for i := range p {
		p[i] = 1
	}
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				RunITER(g, p, opts, rand.New(rand.NewSource(1)))
			}
		})
	}
}

func BenchmarkCliqueRankProduct(b *testing.B) {
	_, g := productScaleGraph(b)
	iter := RunITER(g, onesP(g), DefaultOptions(), rand.New(rand.NewSource(1)))
	rg := BuildRecordGraph(g, iter.S, g.NumRecords)
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				CliqueRank(rg, opts)
			}
		})
	}
}

func BenchmarkFusionProduct(b *testing.B) {
	_, g := productScaleGraph(b)
	for _, w := range benchWorkers {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := RunFusion(g, g.NumRecords, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
