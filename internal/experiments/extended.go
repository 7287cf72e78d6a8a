package experiments

import (
	"repro/internal/baselines"
	"repro/internal/similarity"
)

// ExtendedRow is one of the library's additional similarity metrics (beyond
// the paper's competitor set) evaluated with the same oracle threshold
// protocol.
type ExtendedRow struct {
	Method string
	F1     [3]float64
}

// RunExtended evaluates the extra metrics the library ships beyond the
// paper's competitor set (Soft TF-IDF, Monge-Elkan and the BiRank-weighted
// TW-IDF variant) on the three replicas. These have no
// published counterpart in the paper's Table II; they quantify how far
// classic hybrid string metrics get on the same candidate sets.
func RunExtended(cfg Config) ([]ExtendedRow, error) {
	rows := []ExtendedRow{{Method: "SoftTFIDF"}, {Method: "MongeElkan"}, {Method: "BiRank+TW-IDF"}}
	for di, name := range AllDatasets {
		b, err := cfg.Bench(name)
		if err != nil {
			return nil, err
		}
		corpus, graph := b.Corpus(), b.Graph()
		birank, _ := baselines.BiRankTWIDF(corpus, graph, baselines.DefaultBiRankOptions())
		for i, scores := range [][]float64{
			similarity.SoftTFIDFScores(corpus, graph),
			similarity.MongeElkanScores(corpus, graph),
			birank,
		} {
			if m, ok := b.EvaluateScores(scores); ok {
				rows[i].F1[di] = m.F1
			}
		}
	}
	return rows, nil
}

// RenderExtended formats the extra-metric comparison.
func RenderExtended(rows []ExtendedRow) string {
	header := []string{"Method", "Restaurant", "Product", "Paper"}
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{r.Method, f3(r.F1[0]), f3(r.F1[1]), f3(r.F1[2])})
	}
	return "Extended metrics — additional string-similarity family members\n" + renderTable(header, out)
}
