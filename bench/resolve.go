package main

import (
	"fmt"
	"runtime"
	"time"

	er "repro"
	"repro/internal/dataset"
)

// runBatch is batch-100k: a cold er.Resolve of the synthetic corpus per
// operation, one caller. Tokenizing and batch blocking dominate it, so it
// is where textproc and index build gains show; it never touches the warm
// path.
func runBatch(c *runConfig) (*outcome, error) {
	return runResolves(c, er.DefaultOptions(), func() []*corpus {
		return []*corpus{syntheticCorpus(c.seed, c.sz.batchRecords)}
	})
}

// runReplicas is replicas: one operation resolves the Restaurant, Product
// and Paper replicas at published scale. Paper's large cliques make
// CliqueRank most of the operation and tokenize plus blocking a sliver, so
// this is where core kernel gains show; it also pins the paper-replica F1.
//
// The replicas stand for the paper's three fixed benchmark datasets, so
// they are always the published ones (generator seed 1, as
// er.ReplicaConfig defaults); the run's seed seeds the fusion instead.
// Over generator seeds 1–10 the mean F1 ranged from 0.76 to 0.88 and the
// operation's cost by up to 2x, which would drown any code change.
func runReplicas(c *runConfig) (*outcome, error) {
	opts := er.DefaultOptions()
	opts.Seed = c.seed
	return runResolves(c, opts, func() []*corpus {
		gc := dataset.GenConfig{Seed: 1, Scale: c.sz.replicaScale}
		return []*corpus{
			newCorpus(dataset.GenRestaurant(gc)),
			newCorpus(dataset.GenProduct(gc)),
			newCorpus(dataset.GenPaper(gc)),
		}
	})
}

// runResolves times operations that each cold-resolve every corpus gen
// makes with er.Resolve. The warm-up operation's outputs are the reference
// every later operation must reproduce, and its F1 is held to the floor.
// f1 is the mean over the corpora.
func runResolves(c *runConfig, opts er.Options, gen func() []*corpus) (*outcome, error) {
	o := newOutcome()
	var ins []*corpus
	setups, err := timeSetups(c.cal, c.setups, c.setupMin,
		func() error { ins = nil; return nil },
		func() error { ins = gen(); return nil })
	if err != nil {
		return nil, err
	}

	// Warm-up: the first operation in a process runs slower than the rest.
	want := make([]uint64, len(ins))
	f1s := make([]float64, len(ins))
	var f1Sum float64
	o.attempted++
	for k, in := range ins {
		res, err := er.Resolve(in.public, opts)
		if err != nil {
			return nil, fmt.Errorf("warm-up resolve of %s: %w", in.name, err)
		}
		if res.Evaluation == nil {
			return nil, fmt.Errorf("warm-up resolve of %s reported no evaluation", in.name)
		}
		want[k], f1s[k] = publicDigest(res), res.Evaluation.F1
		f1Sum += f1s[k]
		floor := floorF1(c, in.name)
		o.check(f1s[k] >= floor, "%s F1 %.4f below floor %.4f", in.name, f1s[k], floor)
	}

	resolveAll := func() (time.Duration, error) {
		o.attempted++
		var total time.Duration
		for k, in := range ins {
			start := time.Now()
			res, err := er.Resolve(in.public, opts)
			total += time.Since(start)
			if err != nil {
				o.fail("resolve %s: %v", in.name, err)
				return total, err
			}
			o.check(publicDigest(res) == want[k], "%s output differs from the warm-up's", in.name)
		}
		return total, nil
	}

	if c.tr == nil {
		before := sampleMem()
		ops, err := loop(c.window, c.minOps, c.cal, func(int) (time.Duration, error) { return resolveAll() })
		if err != nil {
			return o, nil
		}
		o.endToEnd(c, setups, ops, costSince(before, len(ops)), f1Sum/float64(len(ins)))
		o.metrics["live_heap_mib"] = c.liveHeapMiB()
		runtime.KeepAlive(ins)
		return o, nil
	}

	// Traced: alternate the public calls with the layered ones, so both see
	// the same machine state, and require identical output from each.
	los := make([]layerOptions, len(ins))
	for k, in := range ins {
		los[k] = layerOptionsFor(opts, in.public.NumSources() > 1)
	}
	before := sampleMem()
	var plain, traced, pairs, rounds, iters []float64
	var ops []int
	_, err = loop(c.window, 2*c.minOps, nil, func(i int) (time.Duration, error) {
		if i%2 == 0 {
			d, err := resolveAll()
			plain = append(plain, millis(d))
			return d, err
		}
		o.attempted++
		op := c.tr.newOp()
		var total time.Duration
		var sum layerStats
		for k, in := range ins {
			start := time.Now()
			root := c.tr.begin(op, 0, "op.resolve."+in.name)
			out, err := resolveLayered(c.tr, op, root, in, los[k])
			c.tr.end(root)
			total += time.Since(start)
			if err != nil {
				o.fail("layered resolve %s: %v", in.name, err)
				return total, err
			}
			o.check(out.digest == want[k], "traced %s output differs from the untraced public call", in.name)
			o.check(out.f1 == f1s[k], "traced %s F1 %.6f differs from the public call's %.6f", in.name, out.f1, f1s[k])
			sum.pairs += out.stats.pairs
			sum.rounds += out.stats.rounds
			sum.iterations += out.stats.iterations
		}
		traced = append(traced, millis(total))
		ops = append(ops, op)
		pairs = append(pairs, float64(sum.pairs))
		rounds = append(rounds, float64(sum.rounds))
		iters = append(iters, float64(sum.iterations))
		return total, nil
	})
	if err != nil {
		return o, nil
	}
	cost := costSince(before, len(plain)+len(traced))
	layers := c.tr.leafPerOp(ops)
	o.layerTimes(layers)
	o.metrics["index.candidate_pairs"] = median(pairs)
	o.metrics["core.rounds"] = median(rounds)
	o.metrics["core.iter_iterations"] = median(iters)
	if len(ins) > 1 {
		for k, in := range ins {
			o.metrics["eval.f1_"+in.name] = f1s[k]
		}
	}
	o.tracedCommon(plain, traced, layers, cost)
	return o, nil
}

// layerTimes publishes the median per-operation time of every leaf span
// name as <name>_ms.
func (o *outcome) layerTimes(layers map[string][]float64) {
	for name, v := range layers {
		o.metrics[name+"_ms"] = median(v)
	}
}
