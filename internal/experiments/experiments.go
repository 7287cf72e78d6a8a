// Package experiments regenerates every table and figure of the paper's
// evaluation section (§VII) on the three benchmark replicas. It is the
// engine behind cmd/erbench and the root-level benchmark suite.
//
// All experiments run with the universal parameter setting of §VII-C via
// er.DefaultOptions (α = 20, S = 20, η = 0.98, 5 fusion iterations) so the
// harness exercises exactly the configuration the paper reports.
package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro"
	"repro/internal/engine"
)

// DatasetName identifies one of the three benchmark replicas.
type DatasetName string

// The benchmark replicas, in the paper's column order.
const (
	Restaurant DatasetName = "Restaurant"
	Product    DatasetName = "Product"
	Paper      DatasetName = "Paper"
)

// AllDatasets lists the replicas in Table II column order.
var AllDatasets = []DatasetName{Restaurant, Product, Paper}

// Config parameterizes an experiment run.
type Config struct {
	// Seed drives replica generation and the pipeline.
	Seed int64
	// Scale multiplies the published dataset sizes (1.0 = paper size).
	Scale float64
	// Options are the pipeline parameters; zero value means
	// er.DefaultOptions.
	Options *er.Options
	// Workers bounds the kernel goroutines per pipeline run (0 =
	// GOMAXPROCS). Ignored when Options is set — explicit Options carry
	// their own Workers field.
	Workers int
	// Snapshots, when non-nil, is injected into every pipeline the config
	// builds (unless explicit Options already carry a cache), so the
	// pipeline-based experiments share tokenization and blocking per
	// replica. Nil disables reuse.
	Snapshots *er.SnapshotCache
	// Cache, when non-nil, backs the engine-level Bench harness: prepared
	// snapshots are shared across experiments on the same replica. Nil
	// disables reuse.
	Cache *engine.Cache
}

func (c Config) options() er.Options {
	if c.Options != nil {
		o := *c.Options
		if o.Snapshots == nil {
			o.Snapshots = c.Snapshots
		}
		return o
	}
	o := er.DefaultOptions()
	o.Seed = c.Seed
	o.Workers = c.Workers
	o.Snapshots = c.Snapshots
	return o
}

// Dataset generates the named replica. Unknown names report an error
// wrapping er.ErrInvalidOptions, so callers can branch with errors.Is.
func (c Config) Dataset(name DatasetName) (*er.Dataset, error) {
	cfg := er.ReplicaConfig{Seed: c.Seed, Scale: c.Scale}
	switch name {
	case Restaurant:
		return er.RestaurantReplica(cfg), nil
	case Product:
		return er.ProductReplica(cfg), nil
	case Paper:
		return er.PaperReplica(cfg), nil
	}
	return nil, fmt.Errorf("%w: experiments: unknown dataset %q", er.ErrInvalidOptions, name)
}

// Pipeline builds the standard pipeline for the named replica.
func (c Config) Pipeline(name DatasetName) (*er.Pipeline, error) {
	d, err := c.Dataset(name)
	if err != nil {
		return nil, err
	}
	return er.NewPipelineContext(context.Background(), d, c.options())
}

// Cell is one measured value with the corresponding published value (NaN
// when the original paper did not report it).
type Cell struct {
	Measured, Published float64
}

// renderTable formats rows of labeled columns into an aligned text table.
func renderTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for pad := len(cell); pad < width[i]; pad++ {
				sb.WriteByte(' ')
			}
		}
		sb.WriteByte('\n')
	}
	line(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
	return sb.String()
}

func f3(v float64) string {
	if v != v { // NaN
		return "-"
	}
	return fmt.Sprintf("%.3f", v)
}

func dur(d time.Duration) string {
	switch {
	case d >= time.Minute:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	case d >= time.Second:
		return fmt.Sprintf("%.1fs", d.Seconds())
	default:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
}

func f1x(v float64) string {
	if v != v {
		return "-"
	}
	return fmt.Sprintf("%.1fx", v)
}

func fmtInt(v int) string { return fmt.Sprintf("%d", v) }
