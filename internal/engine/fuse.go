package engine

import (
	"repro/internal/core"
	"repro/internal/index"
)

// Fuse executes the fusion stages — the ITER ⇄ record-graph ⇄
// CliqueRank/RSS reinforcement rounds plus the final η thresholding —
// by driving core.FusionRun phase by phase, so each phase's wall time,
// sizes and iteration counts land in the trace without duplicating the
// loop. The run's checkpoint, worker budget and scratch arena override
// the corresponding option fields; the run's clock times the phases
// (opts.Clock, when set, still times the core result's Elapsed).
//
// The per-round phases are recorded as aggregates: one StageITER, one
// StageRecordGraph and one StageCliqueRank (or StageRSS) entry each
// summing all rounds, followed by a StageFuse entry for the
// thresholding. Entries are recorded even when the run is canceled
// mid-loop, so partial traces survive for diagnosis.
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
	graphSt := StageTrace{Stage: StageRecordGraph, In: g.NumPairs(), InUnit: "pairs", OutUnit: "edges"}
	rankSt := StageTrace{Stage: rankStage, InUnit: "edges", Out: g.NumPairs(), OutUnit: "pairs"}

	f := core.NewFusionRun(g, numRecords, opts)
	if opts.ShardComponents {
		// Partition once per run; the stage records how many components the
		// candidate graph splits into. (A no-op under UseRSS — Sharded()
		// stays false and the loop takes the unsharded phases.)
		if err := r.Stage(StagePartition, func(st *StageTrace) error {
			st.In, st.InUnit = g.NumPairs(), "pairs"
			st.Out, st.OutUnit = f.Partition(), "components"
			return nil
		}); err != nil {
			return nil, err
		}
	}
	// In the sharded path graph construction happens inside the rank step
	// (per component), so only the rank aggregate is recorded for it.
	record := func() {
		r.Record(iterSt)
		if !f.Sharded() {
			r.Record(graphSt)
		}
		r.Record(rankSt)
	}

	for f.Next() {
		start := r.clk()
		iterations, err := f.StepITER()
		iterSt.Wall += r.clk().Sub(start)
		iterSt.Rounds++
		iterSt.Iterations += iterations
		if err != nil {
			record()
			return nil, err
		}

		if f.Sharded() {
			start = r.clk()
			edges, err := f.StepShardedRank()
			rankSt.Wall += r.clk().Sub(start)
			rankSt.Rounds++
			rankSt.In = edges
			if err != nil {
				record()
				return nil, err
			}
			continue
		}

		start = r.clk()
		_, edges := f.StepGraph()
		graphSt.Wall += r.clk().Sub(start)
		graphSt.Rounds++
		graphSt.Out = edges

		start = r.clk()
		err = f.StepRank()
		rankSt.Wall += r.clk().Sub(start)
		rankSt.Rounds++
		rankSt.In = edges
		if err != nil {
			record()
			return nil, err
		}
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
	record()
	r.Record(fuseSt)
	return res, nil
}
