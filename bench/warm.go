package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"time"

	er "repro"
)

// runWarm is warm-100k: a resident er.Collection holding the synthetic
// corpus. Set-up upserts every record and pays the cold resolve; each
// operation is then one seeded mutation — overwrite a live record with
// another record's text and label (a true duplicate), delete one, or
// re-insert a deleted one — followed by a resolve. Materialize and delta
// fusion dominate and nothing is re-tokenized.
func runWarm(c *runConfig) (*outcome, error) {
	o := newOutcome()
	var in *corpus
	var col *er.Collection
	var last *er.Result
	release := func() error {
		in, col, last = nil, nil, nil
		return nil
	}
	load := func() error {
		in = syntheticCorpus(c.seed, c.sz.warmRecords)
		var err error
		if col, err = er.NewCollection(er.DefaultOptions()); err != nil {
			return fmt.Errorf("new collection: %w", err)
		}
		for i, text := range in.texts {
			col.Upsert(recordID(i), er.Record{Text: text, Entity: in.labels[i]})
		}
		if last, err = col.Resolve(); err != nil {
			return fmt.Errorf("cold collection resolve: %w", err)
		}
		return nil
	}
	setups, err := timeSetups(c.cal, c.setups, c.setupMin, release, load)
	if err != nil {
		return nil, err
	}

	// step applies m to the public collection and resolves it.
	step := func(m mutation) (time.Duration, error) {
		o.attempted++
		start := time.Now()
		if m.donor < 0 {
			col.Delete(m.id)
		} else {
			col.Upsert(m.id, er.Record{Text: in.texts[m.donor], Entity: in.labels[m.donor]})
		}
		res, err := col.Resolve()
		d := time.Since(start)
		if err != nil {
			o.fail("collection resolve: %v", err)
			return d, err
		}
		last = res
		return d, nil
	}
	live := newLiveSet(len(in.texts))
	rng := rand.New(rand.NewSource(c.seed))

	if c.tr == nil {
		if _, err := step(live.next(rng)); err != nil { // untimed warm-up
			return o, nil
		}
		before := sampleMem()
		ops, err := loop(c.window, c.minOps, c.cal, func(int) (time.Duration, error) { return step(live.next(rng)) })
		if err != nil {
			return o, nil
		}
		o.endToEnd(c, setups, ops, costSince(before, len(ops)), last.Evaluation.F1)
		o.finalChecks(c, col, last, live)
		o.metrics["live_heap_mib"] = c.liveHeapMiB()
		runtime.KeepAlive(col)
		return o, nil
	}

	// Traced: build the layered twin, hold its cold output to the public
	// collection's, then apply every step to both, alternating which runs
	// first, and require identical output each time.
	w := newWarmIndex(er.DefaultOptions())
	for i, text := range in.texts {
		w.upsert(c.tr, recordID(i), text, in.labels[i])
	}
	cold, err := w.resolve(c.tr, 0, 0)
	if err != nil {
		return nil, err
	}
	o.check(cold.digest == publicDigest(last), "traced cold output differs from the untraced public call")
	o.metrics["index.upsert_us_p50"] = median(c.tr.durations(0, "index.upsert")) * 1000

	var plain, traced, pairs []float64
	var ops []int
	var fused, reused, components int
	both := func(i int) error {
		m := live.next(rng)
		var out *warmOutput
		layered := func() error {
			o.attempted++
			op := c.tr.newOp()
			start := time.Now()
			root := c.tr.begin(op, 0, "op.step")
			w.mutate(c.tr, op, root, m, in)
			var err error
			out, err = w.resolve(c.tr, op, root)
			c.tr.end(root)
			if err != nil {
				o.fail("layered resolve: %v", err)
				return err
			}
			traced = append(traced, msSince(start))
			ops = append(ops, op)
			return nil
		}
		public := func() error {
			d, err := step(m)
			plain = append(plain, millis(d))
			return err
		}
		first, second := public, layered
		if i%2 == 1 {
			first, second = layered, public
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
		o.check(out.digest == publicDigest(last), "traced output differs from the untraced public call")
		o.check(out.f1 == last.Evaluation.F1, "traced F1 %.6f differs from the public call's %.6f", out.f1, last.Evaluation.F1)
		fused += out.fused
		reused += out.reuse
		components += out.components
		pairs = append(pairs, float64(out.pairs))
		return nil
	}
	if err := both(0); err != nil { // untimed warm-up
		return o, nil
	}
	plain, traced, pairs, ops = nil, nil, nil, nil
	fused, reused, components = 0, 0, 0
	before := sampleMem()
	if _, err := loop(c.window, c.minOps, nil, func(i int) (time.Duration, error) { return 0, both(i) }); err != nil {
		return o, nil
	}
	cost := costSince(before, len(plain)+len(traced))
	layers := c.tr.leafPerOp(ops)
	o.layerTimes(layers)
	o.metrics["index.candidate_pairs"] = median(pairs)
	o.metrics["engine.components_fused_per_op"] = float64(fused) / float64(len(ops))
	o.metrics["engine.component_reuse_ratio"] = float64(reused) / float64(components)
	o.tracedCommon(plain, traced, layers, cost)
	o.finalChecks(c, col, last, live)
	runtime.KeepAlive(w)
	return o, nil
}

// finalChecks holds the collection to the live set the steps produced and
// its F1 to the floor.
func (o *outcome) finalChecks(c *runConfig, col *er.Collection, last *er.Result, live *liveSet) {
	o.check(col.Len() == len(live.ids), "collection holds %d records, the steps leave %d live", col.Len(), len(live.ids))
	want := slices.Clone(live.ids)
	slices.Sort(want)
	o.check(slices.Equal(last.IDs, want), "resolved record IDs differ from the expected live set")
	floor := floorF1(c, "warm")
	o.check(last.Evaluation.F1 >= floor, "warm F1 %.4f below floor %.4f", last.Evaluation.F1, floor)
}

// recordID names record i; zero-padding makes ascending ID order equal
// ascending record order.
func recordID(i int) string { return fmt.Sprintf("r%06d", i) }

// mutation is one warm step: upsert id with the text and label of record
// donor, or delete id when donor is negative.
type mutation struct {
	id    string
	donor int
}

// liveSet tracks which records a sequence of steps leaves live, so the
// final state can be checked and steps only delete live records and only
// re-insert deleted ones.
type liveSet struct {
	ids  []string // live, in no particular order
	gone []int    // deleted record indexes
	n    int
}

func newLiveSet(n int) *liveSet {
	l := &liveSet{ids: make([]string, n), n: n}
	for i := range l.ids {
		l.ids[i] = recordID(i)
	}
	return l
}

// next draws a step: 60% duplicate-donor overwrites, 20% deletes and 20%
// re-inserts of a deleted record's original text (an overwrite when
// nothing is deleted).
func (l *liveSet) next(rng *rand.Rand) mutation {
	r := rng.Float64()
	switch {
	case r < 0.6 || (r >= 0.8 && len(l.gone) == 0):
		return mutation{id: l.ids[rng.Intn(len(l.ids))], donor: rng.Intn(l.n)}
	case r < 0.8:
		k := rng.Intn(len(l.ids))
		id := l.ids[k]
		l.ids[k] = l.ids[len(l.ids)-1]
		l.ids = l.ids[:len(l.ids)-1]
		idx, _ := strconv.Atoi(id[1:]) // ids are only ever made by recordID
		l.gone = append(l.gone, idx)
		return mutation{id: id, donor: -1}
	default:
		k := rng.Intn(len(l.gone))
		idx := l.gone[k]
		l.gone[k] = l.gone[len(l.gone)-1]
		l.gone = l.gone[:len(l.gone)-1]
		id := recordID(idx)
		l.ids = append(l.ids, id)
		return mutation{id: id, donor: idx}
	}
}
