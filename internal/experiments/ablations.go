package experiments

import (
	"repro/internal/core"
)

// AblationResult measures the F1 impact of disabling one design choice of
// the framework (DESIGN.md §4) across the replicas.
type AblationResult struct {
	Name string
	// F1 per dataset with the full framework.
	Full [3]float64
	// F1 per dataset with the ablated variant.
	Ablated [3]float64
}

// ablationSpec describes how to derive the ablated option set.
type ablationSpec struct {
	name  string
	apply func(*core.Options)
}

var ablationSpecs = []ablationSpec{
	{"alpha=1 (linear transition, Eq. 11 off)", func(o *core.Options) { o.Alpha = 1 }},
	{"no target bonus (Eq. 12 off)", func(o *core.Options) { o.DisableBonus = true }},
	{"no early-stop mask (⊙ M_n off)", func(o *core.Options) { o.DisableMask = true }},
	{"no P_t denominator (Eq. 6 degraded)", func(o *core.Options) { o.DisableDenominator = true }},
	{"single fusion round (no reinforcement)", func(o *core.Options) { o.FusionIterations = 1 }},
	{"L2 weight normalization (§V-C alternative)", func(o *core.Options) { o.Normalization = core.NormL2 }},
}

// RunAblations evaluates every ablation on every replica.
func RunAblations(cfg Config) ([]AblationResult, error) {
	results := make([]AblationResult, len(ablationSpecs))
	for i, spec := range ablationSpecs {
		results[i].Name = spec.name
	}
	for di, name := range AllDatasets {
		b, err := cfg.Bench(name)
		if err != nil {
			return nil, err
		}
		full, err := benchFusionF1(b, nil)
		if err != nil {
			return nil, err
		}
		for i, spec := range ablationSpecs {
			results[i].Full[di] = full
			if results[i].Ablated[di], err = benchFusionF1(b, spec.apply); err != nil {
				return nil, err
			}
		}
	}
	return results, nil
}

// benchFusionF1 runs the fusion stages on the harness snapshot with
// optionally modified core options and returns the resulting F1.
func benchFusionF1(b *Bench, modify func(*core.Options)) (float64, error) {
	res, _, err := b.Fusion(modify)
	if err != nil {
		return 0, err
	}
	m, _ := b.EvaluateMatches(res.Matches)
	return m.F1, nil
}

// RenderAblations formats the ablation study.
func RenderAblations(results []AblationResult) string {
	header := []string{"Ablation", "Restaurant", "Product", "Paper"}
	var rows [][]string
	cell := func(full, ablated float64) string {
		return f3(ablated) + " (full " + f3(full) + ")"
	}
	for _, r := range results {
		rows = append(rows, []string{
			r.Name,
			cell(r.Full[0], r.Ablated[0]),
			cell(r.Full[1], r.Ablated[1]),
			cell(r.Full[2], r.Ablated[2]),
		})
	}
	return "Ablations — F1 with one design choice disabled\n" + renderTable(header, rows)
}
