package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	er "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/index"
	"repro/internal/textproc"
)

// The traced run drives each layer's public function itself, in the order
// er.Resolve and er.Collection.Resolve call them, so it can time every
// layer from benchmark code without instrumenting the program. These
// mappings restate how er.Options reaches the layers; the traced run checks
// its output bit for bit against the public call, so a stale mapping fails
// the run instead of measuring a different program.

// layerOptions are er.Options as the internal layers take them.
type layerOptions struct {
	corpus textproc.CorpusOptions
	block  index.BatchOptions
	core   core.Options
}

func layerOptionsFor(o er.Options, crossSourceOnly bool) layerOptions {
	c := core.DefaultOptions()
	c.Alpha = o.Alpha
	c.Steps = o.Steps
	c.Eta = o.Eta
	c.FusionIterations = o.FusionIterations
	c.UseRSS = o.UseRSS
	c.RSSWalks = o.RSSWalks
	c.Seed = o.Seed
	c.Workers = o.Workers
	c.ShardComponents = !o.DisableSharding
	return layerOptions{
		corpus: textproc.CorpusOptions{
			Tokenize:   textproc.DefaultTokenizeOptions(),
			MaxDFRatio: o.MaxDFRatio,
			Stopwords:  o.Stopwords,
		},
		block: index.BatchOptions{
			CrossSourceOnly: crossSourceOnly,
			MaxTermRecords:  o.MaxTermRecords,
			MinJaccard:      o.MinJaccard,
			MinSharedTerms:  o.MinSharedTerms,
			Workers:         o.Workers,
		},
		core: c,
	}
}

// layerStats are the counts one layered resolve observed.
type layerStats struct {
	pairs, rounds, iterations int
}

// layeredOutput is what the comparison with the public call needs.
type layeredOutput struct {
	digest uint64
	f1     float64
	stats  layerStats
}

// resolveLayered is er.Resolve driven stage by stage: tokenize, block,
// partition, the ITER ⇄ sharded CliqueRank rounds, thresholding, clustering
// and evaluation, each inside its own span under parent.
func resolveLayered(tr *tracer, op, parent int, in *corpus, lo layerOptions) (*layeredOutput, error) {
	var c *textproc.Corpus
	tr.do(op, parent, "textproc.tokenize", func() { c = textproc.BuildCorpus(in.texts, lo.corpus) })
	var g *index.Graph
	var err error
	tr.do(op, parent, "index.block", func() { g, err = index.BuildGraph(c, in.sources, lo.block) })
	if err != nil {
		return nil, fmt.Errorf("blocking: %w", err)
	}
	n := len(in.texts)
	f := core.NewFusionRun(g, n, lo.core)
	tr.do(op, parent, "core.partition", func() { f.Partition() })
	out := &layeredOutput{stats: layerStats{pairs: g.NumPairs()}}
	for f.Next() {
		var it int
		tr.do(op, parent, "core.iter", func() { it, err = f.StepITER() })
		if err != nil {
			return nil, fmt.Errorf("iter: %w", err)
		}
		tr.do(op, parent, "core.cliquerank", func() { _, err = f.StepShardedRank() })
		if err != nil {
			return nil, fmt.Errorf("cliquerank: %w", err)
		}
		out.stats.rounds++
		out.stats.iterations += it
	}
	var res *core.FusionResult
	tr.do(op, parent, "core.finish", func() { res = f.Finish() })
	var clusters [][]int
	tr.do(op, parent, "cluster.cluster", func() { clusters = cluster.FromMatches(n, g.Pairs, res.Matches) })
	tr.do(op, parent, "eval.evaluate", func() {
		out.f1 = eval.EvaluatePairs(g.Pairs, res.Matches, in.truth, len(in.truth)).F1
	})
	out.digest = digest(res.P, clusters, nil)
	return out, nil
}

// warmIndex is er.Collection rebuilt from its layers: the incremental
// blocking index, the component cache of the delta resolver, and the
// ground-truth labels the collection evaluates against.
type warmIndex struct {
	ix    *index.Index
	cache *engine.Cache
	lo    layerOptions
	label map[string]string
}

func newWarmIndex(o er.Options) *warmIndex {
	lo := layerOptionsFor(o, false)
	return &warmIndex{
		ix:    index.New(index.Config{Corpus: lo.corpus, Block: lo.block}),
		cache: engine.NewCache(0),
		lo:    lo,
		label: make(map[string]string),
	}
}

// upsert loads one record during set-up.
func (w *warmIndex) upsert(tr *tracer, id, text, label string) {
	tr.do(0, 0, "index.upsert", func() { w.ix.Upsert(id, text, 0) })
	w.label[id] = label
}

// mutate applies one warm step inside an index.mutate span.
func (w *warmIndex) mutate(tr *tracer, op, parent int, m mutation, in *corpus) {
	if m.donor < 0 {
		tr.do(op, parent, "index.mutate", func() { w.ix.Delete(m.id) })
		delete(w.label, m.id)
		return
	}
	tr.do(op, parent, "index.mutate", func() { w.ix.Upsert(m.id, in.texts[m.donor], 0) })
	w.label[m.id] = in.labels[m.donor]
}

// warmOutput is what one layered collection resolve produced.
type warmOutput struct {
	digest                   uint64
	f1                       float64
	pairs                    int
	components, fused, reuse int
}

// resolve is er.Collection.ResolveContext driven stage by stage:
// materialize, delta-scoped fusion, clustering and evaluation.
func (w *warmIndex) resolve(tr *tracer, op, parent int) (*warmOutput, error) {
	var v *index.View
	tr.do(op, parent, "index.materialize", func() { v = w.ix.Materialize() })
	run := engine.NewRun(context.Background(), engine.RunOptions{Workers: w.lo.core.Workers})
	var res *core.FusionResult
	var stats engine.DeltaStats
	var err error
	tr.do(op, parent, "engine.deltafuse", func() {
		res, stats, err = engine.DeltaFuse(run, v.Graph, len(v.IDs), w.lo.core, w.cache)
	})
	if err != nil {
		return nil, fmt.Errorf("delta fusion: %w", err)
	}
	var clusters [][]int
	tr.do(op, parent, "cluster.cluster", func() { clusters = cluster.FromMatches(len(v.IDs), v.Graph.Pairs, res.Matches) })
	out := &warmOutput{
		digest:     digest(res.P, clusters, v.IDs),
		pairs:      v.Graph.NumPairs(),
		components: stats.Components,
		fused:      stats.ComponentsFused,
		reuse:      stats.ComponentsReused,
	}
	tr.do(op, parent, "eval.evaluate", func() {
		truth := truthByPosition(v.IDs, w.label)
		out.f1 = eval.EvaluatePairs(v.Graph.Pairs, res.Matches, truth, len(truth)).F1
	})
	return out, nil
}

// truthByPosition lists the ground-truth pairs over positions of ids, as
// er.Collection does when every record is labeled.
func truthByPosition(ids []string, label map[string]string) map[uint64]bool {
	byLabel := make(map[string][]int32)
	for pos, id := range ids {
		l := label[id]
		byLabel[l] = append(byLabel[l], int32(pos))
	}
	truth := make(map[uint64]bool)
	for _, recs := range byLabel {
		for a := 0; a < len(recs); a++ {
			for b := a + 1; b < len(recs); b++ {
				truth[index.Key(recs[a], recs[b])] = true
			}
		}
	}
	return truth
}

// digest fingerprints a resolution — every probability bit, the clusters
// and, for collections, the record order — so the traced and public runs
// can be compared without holding both results.
func digest(p []float64, clusters [][]int, ids []string) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		_, _ = h.Write(buf[:]) // hash.Hash writes never fail
	}
	put(uint64(len(p)))
	for _, v := range p {
		put(math.Float64bits(v))
	}
	put(uint64(len(clusters)))
	for _, c := range clusters {
		put(uint64(len(c)))
		for _, r := range c {
			put(uint64(r))
		}
	}
	put(uint64(len(ids)))
	for _, id := range ids {
		_, _ = h.Write([]byte(id))
		put(0)
	}
	return h.Sum64()
}

// publicDigest fingerprints a public er.Result the same way.
func publicDigest(res *er.Result) uint64 {
	return digest(res.Probabilities, res.Clusters, res.IDs)
}
