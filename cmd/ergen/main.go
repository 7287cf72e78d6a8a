// Command ergen writes synthetic benchmark corpora to CSV files in the
// format accepted by cmd/erresolve and er.LoadCSV.
//
// It has two modes. Replica mode (the default) regenerates the paper's
// three benchmark replicas at their published sizes:
//
//	ergen [-dataset restaurant|product|paper|all] [-scale 1.0] [-seed 1] [-out DIR]
//
// Synthetic mode, selected by -records N, generates an open-scale labeled
// corpus (10^5–10^7 records) with Zipf-skewed term distributions, a
// tunable duplication rate and optional multi-source structure — the
// input for the 100k+ scaling benchmarks:
//
//	ergen -records 100000 [-dup 0.3] [-sources 1] [-max-cluster 8]
//	      [-vocab 4096] [-zipf 2.0] [-tokens 8] [-name synthetic]
//	      [-seed 1] [-out DIR]
//
// Synthetic mode additionally accepts -mutations M, which writes a
// deterministic upsert/delete trace (<name>.mutations.jsonl) alongside the
// CSV: an initial load of every record followed by M seeded mutation steps
// (text revisions, deletions, and re-insertions of deleted records), with a
// resolve op after every -resolve-every mutations and one at the end. The
// trace is the input for `erctl replay`, which drives it against a running
// erserve to exercise the incremental (delta-scoped) resolve path.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"

	"repro"
)

func main() {
	dataset := flag.String("dataset", "all", "replica to generate: restaurant, product, paper or all")
	scale := flag.Float64("scale", 1.0, "replica scale (1.0 = published dataset sizes)")
	seed := flag.Int64("seed", 1, "generator seed")
	out := flag.String("out", ".", "output directory")

	records := flag.Int("records", 0, "synthetic mode: exact record count (0 = replica mode)")
	dup := flag.Float64("dup", 0.3, "synthetic mode: duplication rate in [0, 0.95]")
	sources := flag.Int("sources", 1, "synthetic mode: number of record sources")
	maxCluster := flag.Int("max-cluster", 8, "synthetic mode: max records per entity")
	vocab := flag.Int("vocab", 4096, "synthetic mode: shared vocabulary size")
	zipf := flag.Float64("zipf", 2.0, "synthetic mode: term-distribution skew exponent")
	tokens := flag.Int("tokens", 8, "synthetic mode: approximate description length")
	name := flag.String("name", "synthetic", "synthetic mode: dataset name and output file stem")
	mutations := flag.Int("mutations", 0, "synthetic mode: also write a <name>.mutations.jsonl trace with this many mutation steps")
	resolveEvery := flag.Int("resolve-every", 0, "mutation trace: interleave a resolve op after every N mutations (0 = final resolve only)")
	flag.Parse()

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "ergen: %v\n", err)
		os.Exit(1)
	}

	if *records > 0 {
		d := er.SyntheticDataset(er.SyntheticConfig{
			Seed:            *seed,
			Records:         *records,
			DuplicateRate:   *dup,
			MaxClusterSize:  *maxCluster,
			Sources:         *sources,
			VocabSize:       *vocab,
			ZipfExponent:    *zipf,
			TokensPerRecord: *tokens,
			Name:            *name,
		})
		writeDataset(d, filepath.Join(*out, *name+".csv"))
		if *mutations > 0 {
			writeMutations(d, *seed, *mutations, *resolveEvery,
				filepath.Join(*out, *name+".mutations.jsonl"))
		}
		return
	}
	if *mutations > 0 {
		fmt.Fprintln(os.Stderr, "ergen: -mutations requires synthetic mode (-records N)")
		os.Exit(2)
	}

	cfg := er.ReplicaConfig{Seed: *seed, Scale: *scale}
	gens := map[string]func(er.ReplicaConfig) *er.Dataset{
		"restaurant": er.RestaurantReplica,
		"product":    er.ProductReplica,
		"paper":      er.PaperReplica,
	}
	names := []string{"restaurant", "product", "paper"}
	if *dataset != "all" {
		if _, ok := gens[*dataset]; !ok {
			fmt.Fprintf(os.Stderr, "ergen: unknown dataset %q\n", *dataset)
			os.Exit(2)
		}
		names = []string{*dataset}
	}
	for _, n := range names {
		writeDataset(gens[n](cfg), filepath.Join(*out, n+".csv"))
	}
}

// mutationOp is one line of the <name>.mutations.jsonl trace. Op is
// "upsert" (ID, Text, Source set), "delete" (ID set) or "resolve"
// (no other fields); the format matches what erctl replay consumes.
type mutationOp struct {
	Op     string `json:"op"`
	ID     string `json:"id,omitempty"`
	Text   string `json:"text,omitempty"`
	Source int    `json:"source,omitempty"`
}

// writeMutations emits the deterministic mutation trace: an initial load
// of every record, then steps seeded mutation steps — 50% text revision of
// a live record (appending a fresh revision token so its term set, and
// with it the candidate graph, actually changes), 25% deletion of a live
// record, 25% re-insertion of a previously deleted one — with a resolve
// interleaved every resolveEvery mutations and one final resolve. Equal
// seeds give byte-identical traces.
func writeMutations(d *er.Dataset, seed int64, steps, resolveEvery int, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ergen: %v\n", err)
		os.Exit(1)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	emit := func(op mutationOp) {
		if err := enc.Encode(op); err != nil {
			fmt.Fprintf(os.Stderr, "ergen: writing %s: %v\n", path, err)
			os.Exit(1)
		}
	}

	n := d.NumRecords()
	recID := func(i int) string { return fmt.Sprintf("r%06d", i) }
	// Initial load. Sources are intentionally collapsed to 0: the trace is
	// replayed against erserve's default (single-source) resolve options,
	// and carrying the generator's source split would silently empty the
	// candidate set under CrossSourceOnly-style configurations.
	live := make([]int, n)
	for i := 0; i < n; i++ {
		live[i] = i
		emit(mutationOp{Op: "upsert", ID: recID(i), Text: d.Text(i)})
	}

	rng := rand.New(rand.NewSource(seed))
	var deleted []int
	rev := make(map[int]int)
	resolves := 0
	for s := 0; s < steps; s++ {
		switch r := rng.Intn(4); {
		case r < 2 && len(live) > 0: // text revision
			i := live[rng.Intn(len(live))]
			rev[i]++
			emit(mutationOp{Op: "upsert", ID: recID(i),
				Text: fmt.Sprintf("%s rev%d", d.Text(i), rev[i])})
		case r == 2 && len(live) > 1: // delete
			k := rng.Intn(len(live))
			i := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			deleted = append(deleted, i)
			emit(mutationOp{Op: "delete", ID: recID(i)})
		case len(deleted) > 0: // re-insert at its original text
			i := deleted[len(deleted)-1]
			deleted = deleted[:len(deleted)-1]
			live = append(live, i)
			delete(rev, i)
			emit(mutationOp{Op: "upsert", ID: recID(i), Text: d.Text(i)})
		default:
			s-- // no eligible target this step; redraw
			continue
		}
		if resolveEvery > 0 && (s+1)%resolveEvery == 0 {
			emit(mutationOp{Op: "resolve"})
			resolves++
		}
	}
	emit(mutationOp{Op: "resolve"})
	resolves++

	if err := w.Flush(); err == nil {
		err = f.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ergen: closing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d loads, %d mutations, %d resolves -> %s\n",
		d.Name(), n, steps, resolves, path)
}

// writeDataset serializes one dataset and reports its shape, exiting on
// any I/O failure.
func writeDataset(d *er.Dataset, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ergen: %v\n", err)
		os.Exit(1)
	}
	if err := d.WriteCSV(f); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "ergen: writing %s: %v\n", path, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "ergen: closing %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Printf("%s: %d records, %d true matching pairs -> %s\n",
		d.Name(), d.NumRecords(), d.NumTrueMatches(), path)
}
