package experiments

import (
	"context"
	"math"

	"repro/internal/eval"
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
		p, err := cfg.Pipeline(name)
		if err != nil {
			return nil, err
		}
		record := func(method string, f1 float64) {
			row := measured[method]
			row[di] = f1
			measured[method] = row
		}
		if _, m, ok := p.EvaluateScores(p.Jaccard()); ok {
			record("Jaccard", m.F1)
		}
		if _, m, ok := p.EvaluateScores(p.TFIDF()); ok {
			record("TF-IDF", m.F1)
		}
		sb := p.SimRank()
		if _, m, ok := p.EvaluateScores(sb); ok {
			record("SimRank", m.F1)
		}
		su, _ := p.PageRank()
		if _, m, ok := p.EvaluateScores(su); ok {
			record("PageRank", m.F1)
		}
		if _, m, ok := p.EvaluateScores(p.Hybrid(0.5)); ok {
			record("Hybrid", m.F1)
		}
		out, err := p.FusionContext(context.Background())
		if err != nil {
			return nil, err
		}
		if m, ok := p.EvaluateMatches(out.Matched); ok {
			record("ITER+CliqueRank", m.F1)
		}
	}

	res := &Table2Result{}
	for _, ref := range eval.TableII {
		row := Table2Row{Group: ref.Group, Method: ref.Method, Backend: ref.Implemented}
		pub := [3]float64{ref.Restaurant, ref.Product, ref.Paper1}
		got, ok := measured[ref.Method]
		for di := range AllDatasets {
			cell := Cell{Measured: math.NaN(), Published: pub[di]}
			if ok && ref.Implemented {
				cell.Measured = got[di]
			}
			switch di {
			case 0:
				row.Restaurant = cell
			case 1:
				row.Product = cell
			case 2:
				row.Paper = cell
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
