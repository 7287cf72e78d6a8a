package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

// summarize reads the result file bench/run.sh -sets writes — one line per
// run: set, workload, seed and the run's JSON result, tab-separated — and
// prints, per workload and end-to-end metric, each set's median and its
// spread (interquartile range over median) across seeds. It fails when a
// spread other than setup_s exceeds the metric's bound, or when a later
// set's median is worse than the first set's by more than the bound.
func summarize(path string, sp *spec, stdout, stderr io.Writer) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	defer f.Close()
	// values[workload][set][metric] lists one value per run.
	values := make(map[string]map[string]map[string][]float64)
	var sets []string
	seen := make(map[string]bool)
	failedRuns := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.SplitN(sc.Text(), "\t", 4)
		if len(fields) != 4 {
			continue
		}
		set, wl := fields[0], fields[1]
		var r result
		if err := json.Unmarshal([]byte(fields[3]), &r); err != nil || !r.Correct {
			failedRuns++
			fmt.Fprintf(stdout, "run failed: set %s %s seed %s\n", set, wl, fields[2])
			continue
		}
		if !seen[set] {
			seen[set] = true
			sets = append(sets, set)
		}
		if values[wl] == nil {
			values[wl] = make(map[string]map[string][]float64)
		}
		if values[wl][set] == nil {
			values[wl][set] = make(map[string][]float64)
		}
		for name, m := range r.Metrics {
			values[wl][set][name] = append(values[wl][set][name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(stderr, "bench: reading results:", err)
		return 2
	}
	bad := failedRuns
	for _, w := range sp.Workloads {
		bySet := values[w.Name]
		if bySet == nil {
			continue
		}
		fmt.Fprintf(stdout, "\n%s\n", w.Name)
		fmt.Fprintf(stdout, "  %-18s %-7s %6s", "metric", "unit", "bound")
		for _, s := range sets {
			fmt.Fprintf(stdout, " %14s %8s", "median/"+s, "spread")
		}
		fmt.Fprintf(stdout, " %8s  verdict\n", "drift")
		for _, m := range sp.EndToEnd {
			fmt.Fprintf(stdout, "  %-18s %-7s %6.3f", m.Name, m.Unit, m.Bound)
			var first float64
			var drift float64
			var notes []string
			for k, s := range sets {
				xs := bySet[s][m.Name]
				med, spr := median(xs), spread(xs)
				fmt.Fprintf(stdout, " %14.4f %8.4f", med, spr)
				if m.Name != "setup_s" && spr > m.Bound {
					notes = append(notes, fmt.Sprintf("set %s spread over bound", s))
				}
				if k == 0 {
					first = med
					continue
				}
				d := (med - first) / math.Abs(first)
				if m.Better == "higher" {
					d = -d
				}
				drift = math.Max(drift, d)
				if d > m.Bound {
					notes = append(notes, fmt.Sprintf("set %s worse than set %s beyond bound", s, sets[0]))
				}
			}
			verdict := "ok"
			if len(notes) > 0 {
				verdict = "FAIL: " + strings.Join(notes, "; ")
				bad++
			}
			fmt.Fprintf(stdout, " %8.4f  %s\n", drift, verdict)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\n%d failure(s)\n", bad)
		return 1
	}
	return 0
}
