package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/engine"
)

// ScalingPoint is one measurement of the complexity study: graph size and
// per-call CliqueRank / RSS-extrapolated cost at one replica scale.
type ScalingPoint struct {
	Scale int // percent of the published dataset size
	Nodes int
	Edges int
	// SumDegSq is Σ_i deg(i)², the masked-product work bound per CliqueRank
	// step (§VI-C complexity analysis; the dense formulation is O(n³)).
	SumDegSq int64
	// CliqueRank is the measured wall-clock of one CliqueRank call.
	CliqueRank time.Duration
	// RSSPerEdge is the measured per-edge RSS sampling cost.
	RSSPerEdge time.Duration
}

// RunScaling sweeps the Paper replica (the densest graph) across scales and
// measures how CliqueRank's cost tracks the Σ deg² bound rather than n³ —
// the quantitative backing for replacing the paper's Eigen-based dense
// chain with the masked sparse product.
func RunScaling(cfg Config, scales []int) ([]ScalingPoint, error) {
	if len(scales) == 0 {
		scales = []int{20, 40, 60, 80, 100}
	}
	var out []ScalingPoint
	for _, pct := range scales {
		sub := cfg
		sub.Scale = cfg.Scale * float64(pct) / 100
		b, err := sub.Bench(Paper)
		if err != nil {
			return nil, err
		}
		// One fusion round = ITER on the all-ones prior, one record graph,
		// one CliqueRank call — the exact per-call cost the study plots.
		fres, trace, err := b.Fusion(func(o *core.Options) { o.FusionIterations = 1 })
		if err != nil {
			return nil, err
		}
		var crTime time.Duration
		if st := trace.Find(engine.StageCliqueRank); st != nil {
			crTime = st.Wall
		}
		pt := ScalingPoint{
			Scale:      pct,
			Nodes:      fres.Nodes,
			Edges:      fres.Edges,
			CliqueRank: crTime,
		}
		rg := core.BuildRecordGraph(b.Graph(), fres.S, b.snap.NumRecords())
		for i := 0; i < rg.Pattern.N; i++ {
			d := int64(rg.Pattern.Degree(i))
			pt.SumDegSq += d * d
		}
		pt.RSSPerEdge = rssPerEdge(rg, b.CoreOptions())
		out = append(out, pt)
	}
	return out, nil
}

// RenderScaling formats the study.
func RenderScaling(points []ScalingPoint) string {
	header := []string{"Scale", "Nodes", "Edges", "Σ deg²", "CliqueRank", "RSS/edge"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmtInt(p.Scale) + "%",
			fmtInt(p.Nodes),
			fmtInt(p.Edges),
			fmtInt(int(p.SumDegSq)),
			dur(p.CliqueRank),
			p.RSSPerEdge.String(),
		})
	}
	return "Scaling — CliqueRank cost vs masked-product work bound (Paper replica)\n" +
		renderTable(header, rows)
}
