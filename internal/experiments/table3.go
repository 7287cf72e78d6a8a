package experiments

import (
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// Table3Row reproduces one Table III column: record-graph size, running
// time and the CliqueRank-over-RSS speedup for one dataset.
type Table3Row struct {
	Dataset    DatasetName
	GraphNodes int
	GraphEdges int
	// TotalTime is the full 5-round fusion wall-clock time.
	TotalTime time.Duration
	// ITERTime is the part spent in the ITER inner loops.
	ITERTime time.Duration
	// CliqueRankTime is the part spent building G_r and ranking it with
	// CliqueRank.
	CliqueRankTime time.Duration
	// RSSEstimate extrapolates the cost of replacing every CliqueRank call
	// with full RSS sampling, measured on a sample of edges (running RSS
	// exhaustively on dense graphs is exactly what the paper shows to be
	// impractical — its published speedup on Paper is 60x).
	RSSEstimate time.Duration
	// Speedup is RSSEstimate / CliqueRankTime.
	Speedup float64
	// PublishedSpeedup is the paper's Table III value.
	PublishedSpeedup float64
}

// Table3Result reproduces Table III.
type Table3Result struct {
	Rows []Table3Row
}

// rssSampleEdges bounds the number of edges used to estimate the per-edge
// RSS cost.
const rssSampleEdges = 400

// rssPerEdge measures the per-edge cost of RSS sampling on up to
// rssSampleEdges edges of rg, picked by a permutation seeded from
// opts.Seed; 0 on an edgeless graph.
func rssPerEdge(rg *core.RecordGraph, opts core.Options) time.Duration {
	sample := min(rg.NumEdges(), rssSampleEdges)
	if sample == 0 {
		return 0
	}
	positions := rand.New(rand.NewSource(opts.Seed)).Perm(rg.NumEdges())[:sample]
	start := time.Now()
	core.RSSOnEdges(rg, opts, positions)
	return time.Since(start) / time.Duration(sample)
}

// RunTable3 runs the fusion stages through the engine, reads the
// per-phase walls off the stage trace, and estimates the RSS cost on each
// dataset's final record graph.
func RunTable3(cfg Config) (*Table3Result, error) {
	res := &Table3Result{}
	published := map[DatasetName]float64{Restaurant: 1.3, Product: 1.5, Paper: 60}
	for _, name := range AllDatasets {
		b, err := cfg.Bench(name)
		if err != nil {
			return nil, err
		}
		fres, trace, err := b.Fusion(nil)
		if err != nil {
			return nil, err
		}
		opts := b.CoreOptions()

		row := Table3Row{Dataset: name, PublishedSpeedup: published[name]}
		row.TotalTime = fres.Elapsed
		if st := trace.Find(engine.StageITER); st != nil {
			row.ITERTime = st.Wall
		}
		if st := trace.Find(engine.StageCliqueRank); st != nil {
			row.CliqueRankTime = st.Wall
		}
		row.GraphNodes = fres.Nodes
		row.GraphEdges = fres.Edges

		// Estimate RSS on a sample of the final graph's edges, then
		// extrapolate to all edges and all fusion iterations.
		rg := core.BuildRecordGraph(b.Graph(), fres.S, b.snap.NumRecords())
		row.RSSEstimate = rssPerEdge(rg, opts) * time.Duration(rg.NumEdges()*opts.FusionIterations)
		if row.CliqueRankTime > 0 {
			row.Speedup = float64(row.RSSEstimate) / float64(row.CliqueRankTime)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the result in the paper's row layout.
func (t *Table3Result) Render() string {
	header := []string{"Metric"}
	for _, r := range t.Rows {
		header = append(header, string(r.Dataset))
	}
	metric := func(label string, get func(Table3Row) string) []string {
		row := []string{label}
		for _, r := range t.Rows {
			row = append(row, get(r))
		}
		return row
	}
	rows := [][]string{
		metric("Nodes in G_r", func(r Table3Row) string { return fmtInt(r.GraphNodes) }),
		metric("Edges in G_r", func(r Table3Row) string { return fmtInt(r.GraphEdges) }),
		metric("Total running time", func(r Table3Row) string { return dur(r.TotalTime) }),
		metric("Running time for ITER", func(r Table3Row) string { return dur(r.ITERTime) }),
		metric("Running time for CliqueRank", func(r Table3Row) string { return dur(r.CliqueRankTime) }),
		metric("Estimated RSS time", func(r Table3Row) string { return dur(r.RSSEstimate) }),
		metric("Speedup vs RSS (published)", func(r Table3Row) string {
			return f1x(r.Speedup) + " (" + f1x(r.PublishedSpeedup) + ")"
		}),
	}
	return "Table III — efficiency of ITER+CliqueRank\n" + renderTable(header, rows)
}
