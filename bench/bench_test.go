package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// toySizes shrink every workload so the whole matrix runs in seconds.
var toySizes = sizes{batchRecords: 1500, warmRecords: 1500, serveRecords: 300, replicaScale: 0.15}

func testSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := readSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestWorkloadsSmoke runs every workload at toy scale, untraced and traced:
// each must pass its own correctness checks, report every metric
// BENCHMARK.json declares for its mode, and report nothing undeclared.
func TestWorkloadsSmoke(t *testing.T) {
	sp := testSpec(t)
	for _, name := range sortedKeys(workloads) {
		for _, traced := range []bool{false, true} {
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				c := &runConfig{seed: 3, minOps: 2, setups: 1, sz: toySizes}
				wanted := sp.EndToEnd
				if traced {
					c.tr = newTracer()
					wanted = sp.PerLayer
				} else {
					c.cal = newCalibration()
				}
				out, err := workloads[name].run(c)
				if err != nil {
					t.Fatal(err)
				}
				var stray bytes.Buffer
				res := buildResult(out, wanted, !traced, &stray)
				for _, f := range out.failures {
					t.Error(f)
				}
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("result: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if stray.Len() > 0 {
					t.Error(strings.TrimSpace(stray.String()))
				}
				if !traced {
					for _, m := range sp.EndToEnd {
						if res.Metrics[m.Name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
						}
					}
					return
				}
				path := filepath.Join(t.TempDir(), "spans.jsonl")
				if err := c.tr.write(path); err != nil {
					t.Fatal(err)
				}
				data, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Contains(data, []byte(`"name":"op.`)) {
					t.Error("span file holds no operation spans")
				}
			})
		}
	}
}

// TestSpecMatchesDrivers keeps BENCHMARK.json and the drivers in step.
func TestSpecMatchesDrivers(t *testing.T) {
	sp := testSpec(t)
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, sortedKeys(workloads)) {
		t.Errorf("BENCHMARK.json workloads %v, drivers %v", names, sortedKeys(workloads))
	}
	hasSetup := false
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
}

// TestReferenceAllocatesNothing: calibration blocks run inside the timed
// phase, so any allocation of the reference's would read as the
// operations'. (The collection each block starts with allocates a couple of
// objects of the runtime's own, a few per run in all.)
func TestReferenceAllocatesNothing(t *testing.T) {
	r := newReference()
	if n := testing.AllocsPerRun(3, func() { r.run() }); n != 0 {
		t.Errorf("reference allocates %v objects per run, want 0", n)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	spec := filepath.Join("..", "BENCHMARK.json")
	for _, args := range [][]string{
		{"-spec", spec, "-workload", "nope"},
		{"-spec", spec, "-workload", "replicas", "-trace", "2"},
		{"-spec", filepath.Join(t.TempDir(), "missing.json"), "-workload", "replicas"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 {
			t.Errorf("run(%v) exited 0", args)
		}
		if stdout.Len() > 0 {
			t.Errorf("run(%v) printed %q, want no result", args, stdout.String())
		}
	}
}
