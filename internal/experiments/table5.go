package experiments

import (
	"context"
	"time"

	"repro/internal/eval"

	"repro"
)

// Table5Iteration is one fusion round's F1 and cumulative time per dataset.
type Table5Iteration struct {
	Iteration int
	F1        [3]Cell
	Time      [3]time.Duration
}

// Table5Result reproduces Table V: the effect of reinforcement across the
// fusion iterations.
type Table5Result struct {
	Iterations []Table5Iteration
}

// RunTable5 runs the full fusion loop once per dataset, scoring the
// intermediate matching probabilities via the Progress hook.
func RunTable5(cfg Config) (*Table5Result, error) {
	iters := cfg.options().FusionIterations
	res := &Table5Result{Iterations: make([]Table5Iteration, iters)}
	for i := range res.Iterations {
		res.Iterations[i].Iteration = i + 1
	}
	for di, name := range AllDatasets {
		d, err := cfg.Dataset(name)
		if err != nil {
			return nil, err
		}
		opts := cfg.options()
		var pipe *er.Pipeline
		opts.Progress = func(it int, s, p []float64, elapsed time.Duration) {
			matched := make([]bool, len(p))
			for k, v := range p {
				matched[k] = v >= opts.Eta
			}
			if m, ok := pipe.EvaluateMatches(matched); ok {
				row := &res.Iterations[it-1]
				published := eval.TableV[it-1][di]
				row.F1[di] = Cell{Measured: m.F1, Published: published}
				row.Time[di] = elapsed
			}
		}
		if pipe, err = er.NewPipelineContext(context.Background(), d, opts); err != nil {
			return nil, err
		}
		if _, err := pipe.FusionContext(context.Background()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Render formats the table.
func (t *Table5Result) Render() string {
	header := []string{"Iteration",
		"Restaurant F1", "Time",
		"Product F1", "Time",
		"Paper F1", "Time",
	}
	var rows [][]string
	for _, it := range t.Iterations {
		row := []string{fmtInt(it.Iteration)}
		for di := 0; di < 3; di++ {
			row = append(row, f3(it.F1[di].Measured)+" ("+f3(it.F1[di].Published)+")", dur(it.Time[di]))
		}
		rows = append(rows, row)
	}
	return "Table V — effect of reinforcement, F1 measured (published)\n" + renderTable(header, rows)
}
