package experiments

import (
	"context"
	"fmt"
	"strings"
)

// Figure4Series is the Figure 4 data for one dataset: score(t) of terms
// ordered by descending learned weight.
type Figure4Series struct {
	Dataset DatasetName
	// Scores[i] is score(t) of the term with the (i+1)-th largest x_t.
	Scores []float64
}

// Figure4Result reproduces Figure 4 (a-c).
type Figure4Result struct {
	Series []Figure4Series
}

// RunFigure4 extracts the ranked score(t) series per dataset, reusing the
// fusion term weights a Table IV run on the same Config already cached.
func RunFigure4(cfg Config) (*Figure4Result, error) {
	res := &Figure4Result{}
	for _, name := range AllDatasets {
		b, err := cfg.Bench(name)
		if err != nil {
			return nil, err
		}
		weights, err := b.FusionWeights()
		if err != nil {
			return nil, err
		}
		series, ok := b.TermScoreSeries(weights)
		if !ok {
			continue
		}
		res.Series = append(res.Series, Figure4Series{Dataset: name, Scores: series})
	}
	return res, nil
}

// FrontBackMeans summarizes a series by the mean score(t) of its first and
// last deciles — the quantitative core of the figure's visual claim
// (discriminative terms cluster at the front of the ranking).
func (s Figure4Series) FrontBackMeans() (front, back float64) {
	k := len(s.Scores) / 10
	if k == 0 {
		k = 1
	}
	for i := 0; i < k; i++ {
		front += s.Scores[i]
		back += s.Scores[len(s.Scores)-1-i]
	}
	return front / float64(k), back / float64(k)
}

// CSV serializes the series as "rank,score" lines for plotting.
func (s Figure4Series) CSV() string {
	var sb strings.Builder
	sb.WriteString("rank,score\n")
	for i, v := range s.Scores {
		fmt.Fprintf(&sb, "%d,%.6f\n", i+1, v)
	}
	return sb.String()
}

// Render prints the decile summary for each dataset.
func (f *Figure4Result) Render() string {
	header := []string{"Dataset", "Terms", "Mean score(t), top decile", "Mean score(t), bottom decile"}
	var rows [][]string
	for _, s := range f.Series {
		front, back := s.FrontBackMeans()
		rows = append(rows, []string{string(s.Dataset), fmtInt(len(s.Scores)), f3(front), f3(back)})
	}
	return "Figure 4 — score(t) vs rank of learned weight (decile summary;\n" +
		"full series via -csv; paper shows score≈1 clustered at the front)\n" +
		renderTable(header, rows)
}

// Figure5Series is the ITER convergence trace for one dataset: Σ|Δx_t| per
// inner iteration of the first fusion round.
type Figure5Series struct {
	Dataset DatasetName
	// Updates[i] is the total weight update in inner iteration i+1,
	// concatenated across fusion rounds as the paper plots the first 20
	// iterations of the whole run.
	Updates []float64
}

// Figure5Result reproduces Figure 5 (convergence of ITER).
type Figure5Result struct {
	Series []Figure5Series
}

// RunFigure5 collects the update traces.
func RunFigure5(cfg Config) (*Figure5Result, error) {
	res := &Figure5Result{}
	for _, name := range AllDatasets {
		p, err := cfg.Pipeline(name)
		if err != nil {
			return nil, err
		}
		out, err := p.FusionContext(context.Background())
		if err != nil {
			return nil, err
		}
		var updates []float64
		for _, trace := range out.ITERUpdateTrace {
			updates = append(updates, trace...)
		}
		if len(updates) > 20 {
			updates = updates[:20]
		}
		res.Series = append(res.Series, Figure5Series{Dataset: name, Updates: updates})
	}
	return res, nil
}

// CSV serializes a series as "iteration,update" lines.
func (s Figure5Series) CSV() string {
	var sb strings.Builder
	sb.WriteString("iteration,update\n")
	for i, v := range s.Updates {
		fmt.Fprintf(&sb, "%d,%.6f\n", i+1, v)
	}
	return sb.String()
}

// Render prints the traces. The paper's shape: a sharp early peak followed
// by rapid decay to (near) zero.
func (f *Figure5Result) Render() string {
	var sb strings.Builder
	sb.WriteString("Figure 5 — convergence of ITER (Σ weight update per iteration)\n")
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%-12s", s.Dataset)
		for _, v := range s.Updates {
			fmt.Fprintf(&sb, " %8.3f", v)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
