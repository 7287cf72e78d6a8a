package experiments

import "repro/internal/eval"

// Table4Result reproduces Table IV: Spearman's rank correlation between
// learned term weights and the score(t) oracle, for PageRank salience and
// ITER weights.
type Table4Result struct {
	PageRank [3]Cell
	ITER     [3]Cell
}

// RunTable4 measures both weighting schemes on the three replicas. With
// Config.Cache set, the prepared replica snapshots are shared with a
// Figure 4 run on the same Config.
func RunTable4(cfg Config) (*Table4Result, error) {
	res := &Table4Result{}
	for di, name := range AllDatasets {
		b, err := cfg.Bench(name)
		if err != nil {
			return nil, err
		}
		if rho, ok := b.TermWeightQuality(b.PageRankSalience()); ok {
			res.PageRank[di] = Cell{Measured: rho, Published: eval.TableIV["PageRank"][di]}
		}
		weights, err := b.FusionWeights()
		if err != nil {
			return nil, err
		}
		if rho, ok := b.TermWeightQuality(weights); ok {
			res.ITER[di] = Cell{Measured: rho, Published: eval.TableIV["ITER"][di]}
		}
	}
	return res, nil
}

// Render formats the table.
func (t *Table4Result) Render() string {
	header := []string{"Method", "Restaurant", "Product", "Paper"}
	cell := func(c Cell) string { return f3(c.Measured) + " (" + f3(c.Published) + ")" }
	rows := [][]string{
		{"PageRank", cell(t.PageRank[0]), cell(t.PageRank[1]), cell(t.PageRank[2])},
		{"ITER", cell(t.ITER[0]), cell(t.ITER[1]), cell(t.ITER[2])},
	}
	return "Table IV — Spearman rank correlation, measured (published)\n" + renderTable(header, rows)
}
