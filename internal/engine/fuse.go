package engine

import (
	"repro/internal/core"
	"repro/internal/index"
)

// Fuse executes the fusion stages — the ITER ⇄ CliqueRank/RSS
// reinforcement rounds plus the final η thresholding — by driving
// core.FusionRun phase by phase, so each phase's wall time, sizes and
// iteration counts land in the trace without duplicating the loop. The
// run's checkpoint, worker budget and scratch arena override the
// corresponding option fields; the run's clock times the phases
// (opts.Clock, when set, still times the core result's Elapsed).
//
// A CliqueRank run is ranked per connected component, which gives the
// whole-graph bits: a StagePartition entry records the component split
// first. RSS ranks the whole graph, because its walks are seeded by
// global pair ID, so a UseRSS run makes no partition. The per-round
// phases are recorded as aggregates: one StageITER and one
// StageCliqueRank (or StageRSS) entry each summing all rounds — the rank
// entry includes building G_r — followed by a StageFuse entry for the
// thresholding. Entries are recorded even when the run is canceled, so
// partial traces survive for diagnosis.
func Fuse(r *Run, g *index.Graph, numRecords int, opts core.Options) (*core.FusionResult, error) {
	opts.Check = r.check
	opts.Workers = r.workers
	opts.Scratch = &r.scratch
	if opts.Clock == nil {
		opts.Clock = r.clk
	}

	rankStage := StageCliqueRank
	if opts.UseRSS {
		rankStage = StageRSS
	}
	iterSt := StageTrace{Stage: StageITER, In: g.NumTerms, InUnit: "terms", Out: g.NumPairs(), OutUnit: "pairs"}
	rankSt := StageTrace{Stage: rankStage, InUnit: "edges", Out: g.NumPairs(), OutUnit: "pairs"}

	f := core.NewFusionRun(g, numRecords, opts)
	if !opts.UseRSS {
		// Recorded directly rather than through r.Stage, which records
		// nothing on an already-canceled run; the canceled round below
		// then ends the partial trace.
		start := r.clk()
		comps := f.Partition()
		r.Record(StageTrace{Stage: StagePartition, Wall: r.clk().Sub(start),
			In: g.NumPairs(), InUnit: "pairs", Out: comps, OutUnit: "components"})
	}

	var err error
	for f.Next() {
		start := r.clk()
		var iterations int
		iterations, err = f.StepITER()
		iterSt.Wall += r.clk().Sub(start)
		iterSt.Rounds++
		iterSt.Iterations += iterations
		if err != nil {
			break
		}

		start = r.clk()
		var edges int
		edges, err = f.StepRank()
		rankSt.Wall += r.clk().Sub(start)
		rankSt.Rounds++
		rankSt.In = edges
		if err != nil {
			break
		}
	}
	r.Record(iterSt)
	r.Record(rankSt)
	if err != nil {
		return nil, err
	}

	start := r.clk()
	res := f.Finish()
	fuseSt := StageTrace{Stage: StageFuse, In: g.NumPairs(), InUnit: "pairs", OutUnit: "matches"}
	fuseSt.Wall = r.clk().Sub(start)
	for _, m := range res.Matches {
		if m {
			fuseSt.Out++
		}
	}
	r.Record(fuseSt)
	return res, nil
}
