package experiments

import (
	"fmt"
	"math"

	"repro/internal/baselines"
	"repro/internal/eval"
	"repro/internal/similarity"
)

// Table2Row is one competitor's F1 across the three datasets.
type Table2Row struct {
	Group      string
	Method     string
	Backend    bool // implemented and measured by this reproduction
	Restaurant Cell
	Product    Cell
	Paper      Cell
}

// Table2Result reproduces Table II: F1-scores of all competitors.
type Table2Result struct {
	Rows []Table2Row
}

// RunTable2 measures every implemented method on the three replicas and
// merges in the published values, including the machine-learning and
// crowd-sourcing rows that the original paper itself copied from the cited
// publications (printed as reported-only).
func RunTable2(cfg Config) (*Table2Result, error) {
	measured := map[string][3]float64{}
	for di, name := range AllDatasets {
		b, err := cfg.Bench(name)
		if err != nil {
			return nil, err
		}
		corpus, graph := b.Corpus(), b.Graph()
		set := func(method string, f1 float64) {
			row := measured[method]
			row[di] = f1
			measured[method] = row
		}
		record := func(method string, scores []float64) {
			if m, ok := b.EvaluateScores(scores); ok {
				set(method, m.F1)
			}
		}
		record("Jaccard", similarity.Jaccard(corpus, graph))
		record("TF-IDF", similarity.TFIDFCosine(corpus, graph))
		sb := baselines.SimRank(corpus, graph, baselines.DefaultSimRankOptions())
		record("SimRank", sb)
		su, _ := baselines.PageRankTWIDF(corpus, graph, baselines.DefaultPageRankOptions())
		record("PageRank", su)
		hybrid, err := baselines.Hybrid(sb, su, 0.5)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s hybrid: %w", name, err)
		}
		record("Hybrid", hybrid)
		fres, _, err := b.Fusion(nil)
		if err != nil {
			return nil, err
		}
		if m, ok := b.EvaluateMatches(fres.Matches); ok {
			set("ITER+CliqueRank", m.F1)
		}
	}

	res := &Table2Result{}
	for _, ref := range eval.TableII {
		row := Table2Row{Group: ref.Group, Method: ref.Method, Backend: ref.Implemented}
		pub := [3]float64{ref.Restaurant, ref.Product, ref.Paper1}
		got, ok := measured[ref.Method]
		for di, cell := range [3]*Cell{&row.Restaurant, &row.Product, &row.Paper} {
			*cell = Cell{Measured: math.NaN(), Published: pub[di]}
			if ok && ref.Implemented {
				cell.Measured = got[di]
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the table for terminal output. Measured values come first;
// the published value follows in parentheses.
func (t *Table2Result) Render() string {
	header := []string{"Group", "Method", "Restaurant", "Product", "Paper"}
	var rows [][]string
	cell := func(c Cell, implemented bool) string {
		if !implemented {
			if math.IsNaN(c.Published) {
				return "-"
			}
			return f3(c.Published) + " (reported)"
		}
		return f3(c.Measured) + " (" + f3(c.Published) + ")"
	}
	for _, r := range t.Rows {
		rows = append(rows, []string{
			r.Group, r.Method,
			cell(r.Restaurant, r.Backend),
			cell(r.Product, r.Backend),
			cell(r.Paper, r.Backend),
		})
	}
	return "Table II — F1 scores, measured (published)\n" + renderTable(header, rows)
}

// Row returns the row for a method name, or nil.
func (t *Table2Result) Row(method string) *Table2Row {
	for i := range t.Rows {
		if t.Rows[i].Method == method {
			return &t.Rows[i]
		}
	}
	return nil
}
