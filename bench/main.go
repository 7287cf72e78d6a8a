// Command bench is the repository's benchmark: four workloads that drive
// the resolution library and its server end to end, each run in a fresh
// process.
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// An untraced run (-trace 0) times public calls only and prints the
// end-to-end metrics BENCHMARK.json lists. A traced run (-trace 1)
// additionally drives each layer's public functions from benchmark code,
// wraps every call in a span, requires its output to match the public
// call's bit for bit, writes the spans under .bench_build/spans/ at exit
// and prints the per-layer metrics. Either way the last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. The process
// exits non-zero when any correctness check fails.
//
//	bench -report <file>
//
// summarizes the result lines bench/run.sh -sets collects: each metric's
// spread across seeds against its bound, and whether two sets agree.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// spec is the part of BENCHMARK.json the benchmark reads: which metrics a
// run must print, with their units, directions and bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark spec: %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("decoding benchmark spec %s: %w", path, err)
	}
	return &s, nil
}

// driver runs one workload. setups is how often an untraced run repeats
// the set-up at least: three times, but twice for the two set-ups that take
// seconds (100k upserts plus a cold resolve, and a server loaded over
// HTTP), which keeps a full set of runs inside its time budget.
type driver struct {
	run    func(*runConfig) (*outcome, error)
	setups int
}

// workloads maps each workload name in BENCHMARK.json to its driver.
var workloads = map[string]driver{
	"batch-100k": {runBatch, 3},
	"replicas":   {runReplicas, 3},
	"warm-100k":  {runWarm, 2},
	"serve-20k":  {runServe, 2},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// procs is the GOMAXPROCS every run uses. On a shared 2-vCPU host the
// second CPU is free at some times and busy at others, for minutes at a
// time, and the medians of two-thread runs of the same code spread by up to
// 45% across runs. One thread does not depend on it. The library's output
// is identical for every worker count, so one CPU measures the same work.
const procs = 1

func main() {
	runtime.GOMAXPROCS(procs)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	traceFlag := fs.Int("trace", 0, "1 records layer spans and prints the per-layer metrics")
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition")
	report := fs.String("report", "", "summarize a result file written by run.sh -sets instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := readSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *report != "" {
		return summarize(*report, sp, stdout, stderr)
	}
	drv, ok := workloads[*workload]
	if !ok || *traceFlag < 0 || *traceFlag > 1 || *seconds <= 0 {
		fmt.Fprintf(stderr, "bench: need -workload (one of %v), -trace 0|1 and -seconds > 0\n", sortedKeys(workloads))
		return 2
	}
	cfg := &runConfig{
		seed:     *seed,
		window:   time.Duration(*seconds * float64(time.Second)),
		minOps:   5,
		setups:   drv.setups,
		setupMin: time.Second,
		sz:       fullSizes,
	}
	wanted := sp.EndToEnd
	if *traceFlag == 0 {
		cfg.cal = newCalibration()
	} else {
		cfg.tr = newTracer()
		wanted = sp.PerLayer
		// The traced run reports no set-up time; one set-up suffices.
		cfg.setups, cfg.setupMin = 1, 0
	}
	fmt.Fprintf(stdout, "machine: nproc=%d gomaxprocs=%d go=%s %s/%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(stdout, "workload: %s seed=%d seconds=%g trace=%d\n", *workload, *seed, *seconds, *traceFlag)

	out, err := drv.run(cfg)
	if err != nil {
		out = newOutcome()
		out.fail("%s: %v", *workload, err)
	}
	res := buildResult(out, wanted, *traceFlag == 0, stderr)
	for _, m := range wanted {
		fmt.Fprintf(stdout, "  %-34s %14.4f %s\n", m.Name, res.Metrics[m.Name].Value, m.Unit)
	}
	for _, f := range out.failures {
		fmt.Fprintln(stdout, "FAILED:", f)
	}
	if len(out.ops) > 0 {
		fmt.Fprintf(stdout, "  operations: n=%d median=%.2f ms MAD=%.2f ms", len(out.ops), median(out.ops), mad(out.ops))
		if pct, v, ok := tail(out.ops); ok {
			fmt.Fprintf(stdout, " p%g=%.2f ms", pct, v)
		}
		fmt.Fprintln(stdout)
	}
	if out.refs > 0 {
		fmt.Fprintf(stdout, "  calibration: n=%d median=%.2f ms\n", out.refs, out.refMs)
	}
	if cfg.tr != nil {
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, *seed))
		if err := cfg.tr.write(path); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, "spans:", path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench: encoding result:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// buildResult selects the wanted metrics from a workload's outcome. A
// per-layer metric the workload never reaches reads 0. With required set
// (the end-to-end metrics) a missing metric is a failure, since every
// end-to-end metric must be measured on every workload.
func buildResult(out *outcome, wanted []metricSpec, required bool, stderr io.Writer) result {
	res := result{Attempted: out.attempted, Metrics: make(map[string]metric, len(wanted))}
	declared := make(map[string]bool, len(wanted))
	for _, m := range wanted {
		declared[m.Name] = true
		v, ok := out.metrics[m.Name]
		if (!ok || math.IsNaN(v) || math.IsInf(v, 0)) && required && len(out.failures) == 0 {
			out.fail("end-to-end metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[m.Name] = metric{Value: v, Unit: m.Unit}
	}
	for _, name := range sortedKeys(out.metrics) {
		if !declared[name] {
			fmt.Fprintf(stderr, "bench: measured metric %s is not declared in BENCHMARK.json\n", name)
		}
	}
	res.Failed = len(out.failures)
	if res.Attempted < res.Failed {
		res.Attempted = res.Failed
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	res.Correct = res.Failed == 0
	return res
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
