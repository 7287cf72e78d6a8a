package experiments

import (
	"context"
	"repro"
)

// BlockingPoint measures one blocking configuration on one dataset.
type BlockingPoint struct {
	Dataset    DatasetName
	Rule       string
	Candidates int
	// Recall is the fraction of true matches surviving blocking.
	Recall float64
	// FusionF1 is ITER+CliqueRank's F1 on that candidate set.
	FusionF1 float64
	// JaccardF1 is the oracle-threshold Jaccard F1 on that candidate set.
	JaccardF1 float64
}

// blockingRules are the three settings compared by the study: the paper's
// literal footnote rule and the two documented floors (DESIGN.md §5.1).
var blockingRules = []struct {
	name  string
	apply func(*er.Options)
}{
	{"shared>=1 (paper literal)", func(o *er.Options) { o.MinSharedTerms = 1; o.MinJaccard = 0 }},
	{"shared>=2", func(o *er.Options) { o.MinSharedTerms = 2; o.MinJaccard = 0 }},
	{"shared>=2 + jaccard>=0.2 (default)", func(o *er.Options) { o.MinSharedTerms = 2; o.MinJaccard = 0.2 }},
}

// RunBlockingStudy quantifies the DESIGN.md §5.1 deviation: what each
// blocking floor costs in recall and buys in fusion precision. The literal
// rule makes dense graphs (run it at reduced -scale); it is therefore not
// part of erbench's "all" set.
func RunBlockingStudy(cfg Config) ([]BlockingPoint, error) {
	var out []BlockingPoint
	for _, name := range AllDatasets {
		d, err := cfg.Dataset(name)
		if err != nil {
			return nil, err
		}
		for _, rule := range blockingRules {
			opts := cfg.options()
			rule.apply(&opts)
			p, err := er.NewPipelineContext(context.Background(), d, opts)
			if err != nil {
				return nil, err
			}
			recall, _ := p.BlockingRecall()
			fusion, err := p.FusionContext(context.Background())
			if err != nil {
				return nil, err
			}
			point := BlockingPoint{
				Dataset:    name,
				Rule:       rule.name,
				Candidates: p.NumCandidates(),
				Recall:     recall,
			}
			if m, ok := p.EvaluateMatches(fusion.Matched); ok {
				point.FusionF1 = m.F1
			}
			if _, m, ok := p.EvaluateScores(p.Jaccard()); ok {
				point.JaccardF1 = m.F1
			}
			out = append(out, point)
		}
	}
	return out, nil
}

// RenderBlockingStudy formats the study.
func RenderBlockingStudy(points []BlockingPoint) string {
	header := []string{"Dataset", "Blocking rule", "Candidates", "Block recall", "Fusion F1", "Jaccard F1"}
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			string(p.Dataset), p.Rule, fmtInt(p.Candidates),
			f3(p.Recall), f3(p.FusionF1), f3(p.JaccardF1),
		})
	}
	return "Blocking study — cost/benefit of the candidate floors (DESIGN.md §5.1)\n" +
		renderTable(header, rows)
}
