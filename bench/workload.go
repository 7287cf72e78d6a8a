package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	er "repro"
	"repro/internal/dataset"
)

// sizes are the input sizes of the workloads; the smoke test shrinks them.
type sizes struct {
	batchRecords int
	warmRecords  int
	serveRecords int
	replicaScale float64
}

var fullSizes = sizes{batchRecords: 100000, warmRecords: 100000, serveRecords: 20000, replicaScale: 1}

// runConfig is one benchmark run.
type runConfig struct {
	seed int64
	// window is how long the timed phase lasts; every timed loop also runs
	// at least minOps operations.
	window time.Duration
	minOps int
	// setups is how often the untraced run at least repeats its set-up,
	// reporting the median: one set-up is a single sample, as noisy as one
	// operation. Cheap set-ups repeat until setupMin has passed.
	setups   int
	setupMin time.Duration
	sz       sizes
	// cal times the reference between the untraced run's operations; nil
	// for the traced run.
	cal *calibration
	// tr is non-nil for the traced run.
	tr *tracer
}

// outcome is what a workload reports: end-to-end metrics for an untraced
// run, per-layer metrics for a traced one, and its correctness tally.
type outcome struct {
	attempted int
	failures  []string
	metrics   map[string]float64
	// ops holds the untraced operations' wall times in milliseconds.
	ops []float64
	// refMs is the calibration's median reference time in milliseconds,
	// and refs its sample count; 0 on a traced run.
	refMs float64
	refs  int
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// fail records a failed check; the run then reports correct=false and
// exits non-zero.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// check records a failed check when ok is false.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.fail(format, args...)
	}
}

// corpus is one generated dataset in both forms the benchmark needs: the
// public er.Dataset and the raw slices the layers take.
type corpus struct {
	name    string
	texts   []string
	sources []int
	labels  []string
	truth   map[uint64]bool
	public  *er.Dataset
}

func newCorpus(ds *dataset.Dataset) *corpus {
	c := &corpus{
		name:    strings.ToLower(ds.Name),
		texts:   ds.Texts(),
		sources: ds.Sources(),
		truth:   ds.TrueMatches(),
		labels:  make([]string, len(ds.Records)),
	}
	recs := make([]er.Record, len(ds.Records))
	for i, r := range ds.Records {
		c.labels[i] = strconv.Itoa(r.EntityID)
		recs[i] = er.Record{Text: r.Text, Source: r.Source, Entity: c.labels[i]}
	}
	c.public = er.NewDataset(ds.Name, recs)
	return c
}

// syntheticCorpus is the 100k-scale corpus shape of the repository's scale
// benchmarks.
func syntheticCorpus(seed int64, records int) *corpus {
	return newCorpus(dataset.GenSynthetic(dataset.SyntheticConfig{
		Seed:          seed,
		Records:       records,
		DuplicateRate: 0.3,
		VocabSize:     50000,
	}))
}

// timing is one timed set-up or operation: its own wall time in
// milliseconds and the interval it ran in.
type timing struct {
	ms         float64
	start, end time.Time
}

func msOf(ts []timing) []float64 {
	ms := make([]float64, len(ts))
	for i, t := range ts {
		ms[i] = t.ms
	}
	return ms
}

// timeSetups runs setup at least n times, and more until minTime has
// passed, and returns their timings. Only the last set-up's state
// survives: teardown runs untimed before every set-up but the first and
// releases the previous one's state, so memory holds one copy. A
// calibration block runs before each set-up, and its collection makes
// every set-up start from a collected heap, as in a fresh process.
func timeSetups(cal *calibration, n int, minTime time.Duration, teardown, setup func() error) ([]timing, error) {
	var ts []timing
	begin := time.Now()
	for len(ts) < n || time.Since(begin) < minTime {
		if len(ts) > 0 {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		cal.block()
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		ts = append(ts, timing{ms: msSince(start), start: start, end: time.Now()})
	}
	return ts, nil
}

// loop calls op until the window has elapsed and at least minOps calls
// have run, and returns each call's timing, with the wall time op reports.
// cal times a block before the first call, whenever one is due between
// calls, and after the last; the window does not count the blocks. An
// error stops the loop.
func loop(window time.Duration, minOps int, cal *calibration, op func(i int) (time.Duration, error)) ([]timing, error) {
	var ts []timing
	var paused time.Duration
	cal.block()
	begin := time.Now()
	for i := 0; len(ts) < minOps || time.Since(begin)-paused < window; i++ {
		start := time.Now()
		d, err := op(i)
		if err != nil {
			return ts, err
		}
		ts = append(ts, timing{ms: millis(d), start: start, end: time.Now()})
		if cal.due() {
			paused += cal.block()
		}
	}
	cal.block()
	return ts, nil
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func msSince(start time.Time) float64 { return millis(time.Since(start)) }

// memSample is a point-in-time reading of the allocator and the GC.
type memSample struct {
	mallocs, totalAlloc uint64
	gcCPU               float64
}

func sampleMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	var gc float64
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	return memSample{mallocs: ms.Mallocs, totalAlloc: ms.TotalAlloc, gcCPU: gc}
}

const mib = 1 << 20

// liveHeapMiB collects garbage and returns the heap still in use: what the
// workload's resident state costs. It drops the calibration first, whose
// buffers are not the workload's. The second collection empties the
// sync.Pool victim caches the first one only demotes, so pooled scratch
// does not read as resident state.
func (c *runConfig) liveHeapMiB() float64 {
	c.cal = nil
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

// phaseCost is what a timed phase cost the process per operation: heap
// objects and bytes allocated, and CPU time spent collecting garbage.
type phaseCost struct {
	allocs, allocMiB, gcCPUms float64
}

// costSince measures the cost of the ops operations run since before was
// sampled. Call it right after the timed loop, before any checks allocate.
func costSince(before memSample, ops int) phaseCost {
	after := sampleMem()
	n := float64(ops)
	return phaseCost{
		allocs:   float64(after.mallocs-before.mallocs) / n,
		allocMiB: float64(after.totalAlloc-before.totalAlloc) / mib / n,
		gcCPUms:  (after.gcCPU - before.gcCPU) * 1000 / n,
	}
}

// endToEnd fills the metrics every workload reports on an untraced run
// but live_heap_mib, which each workload reads while its state is live.
// Both times are medians taken relative to c's calibration: the timed
// operations in units of the reference, the set-ups in seconds of the
// machine refMachineMs was measured on. Allocation is reported as a
// count: bytes per operation swing by a fifth between runs as pooled
// scratch buffers are dropped at whichever collections happen to run,
// while the count of heap objects repeats to within a few in 10^5.
func (o *outcome) endToEnd(c *runConfig, setups, ops []timing, cost phaseCost, f1 float64) {
	o.ops = msOf(ops)
	o.refMs, o.refs = median(c.cal.ms), len(c.cal.ms)
	o.metrics["setup_s"] = median(c.cal.relative(setups)) * refMachineMs / 1000
	o.metrics["op_rel_p50"] = median(c.cal.relative(ops))
	o.metrics["allocs_per_op"] = cost.allocs
	o.metrics["f1"] = f1
}

// tracedCommon fills the per-layer metrics shared by every traced run:
// the untraced-versus-traced comparison, the time no layer span covers,
// the latency median and tail in milliseconds, which the end-to-end set
// reports only relative to the calibration, and GC cost. plain and
// traced are the wall times of the untraced and traced operations, layers
// the per-operation sums of every leaf span name (tracer.leafPerOp).
func (o *outcome) tracedCommon(plain, traced []float64, layers map[string][]float64, cost phaseCost) {
	o.ops = plain
	p50 := median(plain)
	var covered float64
	for _, v := range layers {
		covered += median(v)
	}
	o.metrics["op_p50_ms"] = p50
	o.metrics["unaccounted_ms"] = p50 - covered
	o.metrics["trace_overhead_pct"] = (median(traced) - p50) / p50 * 100
	o.tailOf("op", plain)
	o.metrics["runtime.gc_cpu_ms_per_op"] = cost.gcCPUms
	o.metrics["runtime.alloc_mib_per_op"] = cost.allocMiB
}

// tailOf publishes the latency tail of ms as <name>_tail_ms with its
// percentile as <name>_tail_pct, when there are enough samples for one.
func (o *outcome) tailOf(name string, ms []float64) {
	if pct, v, ok := tail(ms); ok {
		o.metrics[name+"_tail_pct"] = pct
		o.metrics[name+"_tail_ms"] = v
	}
}
