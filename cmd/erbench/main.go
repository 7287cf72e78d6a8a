// Command erbench regenerates every table and figure of the paper's
// evaluation section on the synthetic benchmark replicas.
//
// Usage:
//
//	erbench [-experiment all|table2|table3|table4|table5|fig4|fig5|ablations]
//	        [-scale 1.0] [-seed 1] [-csv DIR]
//
// -scale scales the replicas (1.0 = the published dataset sizes);
// -csv writes the full Figure 4/5 series as CSV files into DIR. To resolve
// one CSV corpus end to end with its stage trace, use
// erresolve -trace file.csv.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/plot"
)

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: all, table2, table3, table4, table5, fig4, fig5, extended, scaling, ablations, blocking (opt-in)")
	scale := flag.Float64("scale", 1.0, "replica scale (1.0 = published dataset sizes)")
	seed := flag.Int64("seed", 1, "random seed for replica generation and the pipeline")
	csvDir := flag.String("csv", "", "directory to write full figure series as CSV (optional)")
	svgDir := flag.String("svg", "", "directory to write figures as SVG charts (optional)")
	workers := flag.Int("workers", 0, "kernel goroutines per pipeline run (0 = GOMAXPROCS); results are identical for every value")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Scale: *scale, Workers: *workers}
	fmt.Printf("erbench: scale=%.2f seed=%d (α=20, S=20, η=0.98, 5 fusion iterations)\n\n", *scale, *seed)

	run := func(name string, fn func() (string, error)) {
		start := time.Now()
		out, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("[%s completed in %s]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }

	any := false
	if want("table2") {
		any = true
		run("table2", func() (string, error) {
			res, err := experiments.RunTable2(cfg)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		})
	}
	if want("table3") {
		any = true
		run("table3", func() (string, error) {
			res, err := experiments.RunTable3(cfg)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		})
	}
	if want("table4") {
		any = true
		run("table4", func() (string, error) {
			res, err := experiments.RunTable4(cfg)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		})
	}
	if want("table5") {
		any = true
		run("table5", func() (string, error) {
			res, err := experiments.RunTable5(cfg)
			if err != nil {
				return "", err
			}
			return res.Render(), nil
		})
	}
	if want("fig4") {
		any = true
		run("fig4", func() (string, error) {
			res, err := experiments.RunFigure4(cfg)
			if err != nil {
				return "", err
			}
			writeSeriesCSV(*csvDir, "figure4", func() []namedCSV {
				var out []namedCSV
				for _, s := range res.Series {
					out = append(out, namedCSV{string(s.Dataset), s.CSV()})
				}
				return out
			})
			if *svgDir != "" {
				for _, s := range res.Series {
					x := make([]float64, len(s.Scores))
					for i := range x {
						x[i] = float64(i + 1)
					}
					svg := plot.Scatter(plot.Config{
						Title:  fmt.Sprintf("Figure 4 — %s", s.Dataset),
						XLabel: "rank of learned weight",
						YLabel: "score(t)",
					}, plot.Series{Name: string(s.Dataset), X: x, Y: s.Scores})
					writeFile(*svgDir, fmt.Sprintf("figure4_%s.svg", strings.ToLower(string(s.Dataset))), svg)
				}
			}
			return res.Render(), nil
		})
	}
	if want("fig5") {
		any = true
		run("fig5", func() (string, error) {
			res, err := experiments.RunFigure5(cfg)
			if err != nil {
				return "", err
			}
			writeSeriesCSV(*csvDir, "figure5", func() []namedCSV {
				var out []namedCSV
				for _, s := range res.Series {
					out = append(out, namedCSV{string(s.Dataset), s.CSV()})
				}
				return out
			})
			if *svgDir != "" {
				var lines []plot.Series
				for _, s := range res.Series {
					x := make([]float64, len(s.Updates))
					for i := range x {
						x[i] = float64(i + 1)
					}
					lines = append(lines, plot.Series{Name: string(s.Dataset), X: x, Y: s.Updates})
				}
				svg := plot.Line(plot.Config{
					Title:  "Figure 5 — convergence of ITER",
					XLabel: "iteration",
					YLabel: "amount of weight update",
				}, lines...)
				writeFile(*svgDir, "figure5.svg", svg)
			}
			return res.Render(), nil
		})
	}
	if want("extended") {
		any = true
		run("extended", func() (string, error) {
			rows, err := experiments.RunExtended(cfg)
			if err != nil {
				return "", err
			}
			return experiments.RenderExtended(rows), nil
		})
	}
	if want("scaling") {
		any = true
		run("scaling", func() (string, error) {
			points, err := experiments.RunScaling(cfg, nil)
			if err != nil {
				return "", err
			}
			return experiments.RenderScaling(points), nil
		})
	}
	if *experiment == "blocking" { // opt-in: the literal >=1 rule is dense
		any = true
		run("blocking", func() (string, error) {
			points, err := experiments.RunBlockingStudy(cfg)
			if err != nil {
				return "", err
			}
			return experiments.RenderBlockingStudy(points), nil
		})
	}
	if want("ablations") {
		any = true
		run("ablations", func() (string, error) {
			results, err := experiments.RunAblations(cfg)
			if err != nil {
				return "", err
			}
			return experiments.RenderAblations(results), nil
		})
	}
	if !any {
		fmt.Fprintf(os.Stderr, "erbench: unknown experiment %q\n", *experiment)
		flag.Usage()
		os.Exit(2)
	}
}

// writeFile writes one artifact into dir, creating it as needed.
func writeFile(dir, name, data string) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
		return
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
		return
	}
	fmt.Printf("wrote %s\n", path)
}

type namedCSV struct {
	name, data string
}

func writeSeriesCSV(dir, prefix string, series func() []namedCSV) {
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
		return
	}
	for _, s := range series() {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s.csv", prefix, strings.ToLower(s.name)))
		if err := os.WriteFile(path, []byte(s.data), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "erbench: %v\n", err)
			continue
		}
		fmt.Printf("wrote %s\n", path)
	}
}
