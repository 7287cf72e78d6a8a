// Package engine is the staged execution layer of the resolution
// pipeline. It decomposes the paper's dataflow — tokenize → block →
// (ITER ⇄ record graph ⇄ CliqueRank) → threshold → cluster → evaluate —
// into named stages that run under one shared Run carrying the context's
// guard checkpoint, the worker budget, the fusion scratch arena and the
// injected clock, and that record a per-stage StageTrace (wall time,
// input/output sizes, iteration counts, degradation events).
//
// Stage outputs are first-class artifacts: Prepare produces a
// content-keyed Snapshot of the pre-matching work (tokenized corpus +
// blocking graph + degradation report) that a Cache shares across runs on
// the same dataset, which is what lets erserve and the experiment harness
// skip the dominant pre-matching cost on repeated traffic.
//
// The engine deliberately stays below the public er package: it traffics
// in internal types (textproc.Corpus, index.Graph, core.FusionResult).
// Its result types — StageTrace, Trace, Degradation, CacheStats,
// DeltaStats — are the public ones: the root package declares them as
// aliases, so their doc comments here are the API documentation.
package engine

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/guard"
)

// Stage names, in pipeline order. Rank runs as either StageCliqueRank or
// StageRSS depending on core.Options.UseRSS.
const (
	StageTokenize    = "tokenize"
	StageBlock       = "block"
	StageMaterialize = "materialize"
	StagePartition   = "partition"
	StageITER        = "iter"
	StageCliqueRank  = "cliquerank"
	StageRSS         = "rss"
	StageFuse        = "fuse"
	StageCluster     = "cluster"
	StageEvaluate    = "evaluate"
)

// StageTrace records one stage execution (or, for the per-round fusion
// phases, the aggregate of every round's execution of that phase). The
// root package exports it as er.StageTrace.
type StageTrace struct {
	// Stage is the stage name (one of the Stage* constants): "tokenize",
	// "block", "iter", "cliquerank" (or "rss", each including the build of
	// the record graph it ranks), "fuse", "cluster", "evaluate";
	// "partition" when the fusion is sharded by component; and on
	// delta-scoped resolves "partition", "materialize", "deltafuse".
	Stage string
	// Cached reports that the stage's output was served from a Snapshot
	// cache (er.SnapshotCache) instead of being computed; Wall is then ~0.
	Cached bool
	// Wall is the stage's wall-clock time under the run's clock, summed
	// across rounds for the fusion phases.
	Wall time.Duration
	// In and Out are the stage's input and output sizes in InUnit/OutUnit
	// (records, terms, pairs, edges, matches, clusters).
	In, Out         int
	InUnit, OutUnit string
	// Rounds counts fusion rounds for the per-round phases; 0 elsewhere.
	Rounds int
	// Iterations sums inner-loop iterations (ITER sweeps) across rounds.
	Iterations int
	// ComponentsFused/ComponentsReused and PairsFused/PairsReused record
	// the delta-scoped resolver's work split for the deltafuse stage —
	// components (and their candidate pairs) actually fused this run versus
	// served from the component cache. Zero everywhere else.
	ComponentsFused, ComponentsReused int
	PairsFused, PairsReused           int
	// Events narrates noteworthy stage decisions in order — today the
	// blocking degradation steps.
	Events []string
}

// Trace is the ordered stage record of one Run (er.Trace).
type Trace []StageTrace

// Find returns the first entry for the named stage, or nil.
func (t Trace) Find(stage string) *StageTrace {
	for i := range t {
		if t[i].Stage == stage {
			return &t[i]
		}
	}
	return nil
}

// Total sums the wall time of every recorded stage.
func (t Trace) Total() time.Duration {
	var d time.Duration
	for i := range t {
		d += t[i].Wall
	}
	return d
}

// String renders the trace as an aligned table, one stage per line, with
// degradation events indented beneath their stage.
func (t Trace) String() string {
	var sb strings.Builder
	//lint:ignore guardloop output-sized rendering of an already-computed trace; no unbounded work
	for _, st := range t {
		fmt.Fprintf(&sb, "%-12s %10s", st.Stage, st.Wall.Round(time.Microsecond))
		if st.InUnit != "" || st.OutUnit != "" {
			fmt.Fprintf(&sb, "  %d %s -> %d %s", st.In, st.InUnit, st.Out, st.OutUnit)
		}
		if st.Rounds > 0 {
			fmt.Fprintf(&sb, "  rounds=%d", st.Rounds)
		}
		if st.Iterations > 0 {
			fmt.Fprintf(&sb, " iterations=%d", st.Iterations)
		}
		if st.ComponentsFused > 0 || st.ComponentsReused > 0 {
			fmt.Fprintf(&sb, "  fused=%d/%dp reused=%d/%dp",
				st.ComponentsFused, st.PairsFused, st.ComponentsReused, st.PairsReused)
		}
		if st.Cached {
			sb.WriteString("  [cached]")
		}
		sb.WriteByte('\n')
		for _, ev := range st.Events {
			fmt.Fprintf(&sb, "             - %s\n", ev)
		}
	}
	return sb.String()
}

// RunOptions configures a Run.
type RunOptions struct {
	// Clock supplies stage timestamps; nil selects the system clock.
	Clock clock.Func
	// Workers bounds the goroutines the fusion kernels fan out across
	// (0 = GOMAXPROCS). The run overrides core.Options.Workers with this
	// value so one knob governs every stage.
	Workers int
}

// Run is the shared state one pipeline execution threads through its
// stages: the context's guard checkpoint (polled between and inside
// stages), the injected clock every stage timestamp comes from, the
// worker budget, and the fusion scratch arena reused across Fuse calls on
// the same run. It accumulates the Trace as stages execute. A Run is not
// safe for concurrent use.
type Run struct {
	check   *guard.Checkpoint
	clk     clock.Func
	workers int
	scratch core.Scratch
	trace   Trace
}

// NewRun binds a run to ctx: cancellation and deadlines are observed via
// the context's guard checkpoint before every stage and inside the hot
// loops.
func NewRun(ctx context.Context, o RunOptions) *Run {
	return &Run{
		check:   guard.FromContext(ctx),
		clk:     clock.OrSystem(o.Clock),
		workers: o.Workers,
	}
}

// Check returns the run's guard checkpoint (nil-safe to poll).
func (r *Run) Check() *guard.Checkpoint { return r.check }

// Trace returns a copy of the stages recorded so far, in execution order.
func (r *Run) Trace() Trace { return append(Trace(nil), r.trace...) }

// Stages returns the number of stages recorded so far.
func (r *Run) Stages() int { return len(r.trace) }

// Record appends a stage record to the run's trace.
func (r *Run) Record(st StageTrace) { r.trace = append(r.trace, st) }

// Stage polls for cancellation, times fn under the run's clock and
// records the resulting StageTrace (also when fn fails, so partial traces
// survive for diagnosis). fn receives the entry to fill in sizes and
// events.
func (r *Run) Stage(name string, fn func(st *StageTrace) error) error {
	if err := r.check.Err(); err != nil {
		return err
	}
	st := StageTrace{Stage: name}
	start := r.clk()
	err := fn(&st)
	st.Wall = r.clk().Sub(start)
	r.Record(st)
	return err
}
