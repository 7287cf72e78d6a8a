package core

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/index"
	"repro/internal/matrix"
)

// batchMix builds a candidate graph of random components in shuffled
// order: two-record ones, cliques of 3–8 records (the dense kernel, in a
// batch), cliques of 12–20 (the dense kernel, on their own graphs),
// sparse ones of 8–40 records (a random tree plus chords, the mask plan)
// and one sparse component of 1,200 records with more than bigShardPairs
// pairs. Every pair holds its component's term and one of its own. It
// returns the graph, each record's component and the components' kinds.
func batchMix(rng *rand.Rand) (*index.Graph, []int32, []string) {
	var kinds []string
	for k := 0; k < 380; k++ {
		kinds = append(kinds, [...]string{"pair", "clique", "sparse", "sparse", "sparse"}[k%5])
	}
	kinds = append(kinds, "dense", "dense", "dense")
	kinds = append(kinds, "big")
	rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })

	var pairs []index.Pair
	var compOf []int32
	for c, kind := range kinds {
		var n, edges int
		switch kind {
		case "pair":
			n = 2
		case "clique":
			n = 3 + rng.Intn(6)
		case "dense":
			n = batchDenseRecords + rng.Intn(9)
		case "sparse":
			n = 8 + rng.Intn(33)
			edges = n + n/2
		case "big":
			n, edges = 1200, bigShardPairs+100
		}
		base := int32(len(compOf))
		seen := make(map[index.Pair]bool)
		add := func(i, j int) {
			pr := index.Pair{I: base + int32(min(i, j)), J: base + int32(max(i, j))}
			if i != j && !seen[pr] {
				seen[pr] = true
				pairs = append(pairs, pr)
			}
		}
		if kind == "pair" || kind == "clique" || kind == "dense" {
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					add(i, j)
				}
			}
		} else {
			for v := 1; v < n; v++ {
				add(v, rng.Intn(v))
			}
			for len(seen) < edges {
				add(rng.Intn(n), rng.Intn(n))
			}
		}
		for i := 0; i < n; i++ {
			compOf = append(compOf, int32(c))
		}
	}
	terms := make([][]int32, len(pairs))
	for k, pr := range pairs {
		terms[k] = []int32{compOf[pr.I], int32(len(kinds) + k)}
	}
	return index.NewGraph(len(compOf), len(kinds)+len(pairs), pairs, terms), compOf, kinds
}

// TestBatchedRankBitIdentical is the property test for ranking small
// components in block-diagonal batches. Over random component mixes — two
// records, cliques, sparse ones, one whose pairs all have similarity 0 and
// one above bigShardPairs — four rounds rank given similarities: round 2
// drops edges inside some batches (one component's all), round 3 restores
// them with new weights and round 4 changes only weights. At every worker
// count, at the full plan budget and at one entry, every component's
// probabilities must equal its own BuildRecordGraph and CliqueRankInto bit
// for bit; a batch must be laid out again exactly when its kept-edge set
// changed; no record graph may hold a two-record component, a dense one
// of batchDenseRecords records must have its own, and some must hold
// several components. Finish must return the whole plan budget.
func TestBatchedRankBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, compOf, kinds := batchMix(rng)
		rounds := batchRounds(rng, g, compOf, kinds)
		want := make([][]float64, len(rounds))
		for r, s := range rounds {
			want[r] = rankEachComponent(g, compOf, len(kinds), s)
		}
		for _, budget := range []int64{matrix.MaskPlanMaxEntries, 1} {
			for _, w := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("seed %d budget %d workers %d", seed, budget, w), func(t *testing.T) {
					checkBatchedRank(t, g, compOf, rounds, want, budget, w)
				})
			}
		}
	}
}

// batchRounds draws the four rounds' similarities of
// TestBatchedRankBitIdentical.
func batchRounds(rng *rand.Rand, g *index.Graph, compOf []int32, kinds []string) [][]float64 {
	zero := int32(slices.Index(kinds, "sparse"))
	dropComp := int32(slices.Index(kinds, "clique"))
	dropped := make([]bool, len(kinds))
	for c := range dropped {
		dropped[c] = kinds[c] != "big" && rng.Intn(10) == 0
	}
	rounds := make([][]float64, 4)
	for r := range rounds {
		s := make([]float64, g.NumPairs())
		for pid, pr := range g.Pairs {
			c := compOf[pr.I]
			switch {
			case c == zero:
			case r == 1 && (c == dropComp || dropped[c] && rng.Intn(3) == 0):
			case r == 3:
				s[pid] = rounds[2][pid] * (0.5 + rng.Float64())
			default:
				s[pid] = 1 - rng.Float64()
			}
		}
		rounds[r] = s
	}
	return rounds
}

// rankEachComponent ranks every component of g on its own record graph,
// built from the similarities s, and returns the probabilities by global
// pair ID.
func rankEachComponent(g *index.Graph, compOf []int32, comps int, s []float64) []float64 {
	byComp := make([][]int32, comps)
	for pid, pr := range g.Pairs {
		byComp[compOf[pr.I]] = append(byComp[compOf[pr.I]], int32(pid))
	}
	opts := DefaultOptions()
	opts.Workers = 1
	p := make([]float64, g.NumPairs())
	for _, pids := range byComp {
		// A local graph of termless pairs numbers them by key.
		key := func(pid int32) uint64 { return index.Key(g.Pairs[pid].I, g.Pairs[pid].J) }
		slices.SortFunc(pids, func(a, b int32) int { return cmp.Compare(key(a), key(b)) })
		base := g.Pairs[pids[0]].I
		for _, pid := range pids {
			base = min(base, g.Pairs[pid].I)
		}
		local := make([]index.Pair, len(pids))
		ls := make([]float64, len(pids))
		n := int32(0)
		for k, pid := range pids {
			pr := g.Pairs[pid]
			local[k] = index.Pair{I: pr.I - base, J: pr.J - base}
			ls[k] = s[pid]
			n = max(n, pr.J-base+1)
		}
		lp := make([]float64, len(pids))
		CliqueRankInto(BuildRecordGraph(pairGraph(int(n), local), ls, int(n)), opts, lp)
		for k, pid := range pids {
			p[pid] = lp[k]
		}
	}
	return p
}

// checkBatchedRank runs one configuration of TestBatchedRankBitIdentical.
func checkBatchedRank(t *testing.T, g *index.Graph, compOf []int32, rounds, want [][]float64, budget int64, w int) {
	opts := DefaultOptions()
	opts.FusionIterations = len(rounds)
	opts.Workers = w
	f := NewFusionRun(g, g.NumRecords, opts)
	f.planBudget.Store(budget)
	f.Partition()
	ss := f.shards
	if len(ss.big) != 1 || len(ss.kept)-len(ss.big) < 2 {
		t.Fatalf("%d big components and %d small chunks, want 1 and several", len(ss.big), len(ss.kept)-len(ss.big))
	}
	size, pairs := make(map[int32]int32), make(map[int32]int)
	for _, c := range compOf {
		size[c]++
	}
	for _, pr := range g.Pairs {
		pairs[compOf[pr.I]]++
	}
	shared := 0
	for u := range f.graphs.graphs {
		rg := &f.graphs.graphs[u]
		comps := make(map[int32]bool)
		for _, pid := range rg.pairs {
			comps[compOf[g.Pairs[pid].I]] = true
		}
		nodes := int32(0)
		for c := range comps {
			if size[c] == 2 {
				t.Fatalf("graph %d holds two-record component %d", u, c)
			}
			dense := selectChain(int(size[c]), 2*pairs[c]) == chainDense
			if dense && size[c] >= batchDenseRecords && len(comps) > 1 {
				t.Fatalf("graph %d batches dense component %d of %d records", u, c, size[c])
			}
			nodes += size[c]
		}
		if int(nodes) != rg.Pattern.N {
			t.Fatalf("graph %d has %d nodes, its components %d records", u, rg.Pattern.N, nodes)
		}
		if len(comps) > 1 {
			shared++
		}
	}
	if shared == 0 {
		t.Fatal("no record graph holds more than one component")
	}

	for f.Next() {
		// The round ranks the given similarities; ITER, which would only
		// compute ones to overwrite, does not run.
		r := f.round - 1
		f.res.S = rounds[r]
		before := layCounts(f)
		if _, err := f.StepRank(); err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("round %d", f.round)
		bitsEqual(t, label+" P", want[r], f.p)
		if r == 0 {
			continue
		}
		for u, lays := range layCounts(f) {
			rg := &f.graphs.graphs[u]
			changed := false
			for _, pid := range rg.pairs {
				changed = changed || (rounds[r][pid] > 0) != (rounds[r-1][pid] > 0)
			}
			if kept := slices.ContainsFunc(rg.pairs, func(pid int32) bool { return rounds[r][pid] > 0 }); !kept {
				changed = false // an all-zero graph is not ranked
			}
			if changed != (lays != before[u]) {
				t.Fatalf("%s: graph %d laid out %d times, before %d; its kept-edge set changed: %v",
					label, u, lays, before[u], changed)
			}
		}
	}
	f.Finish()
	if got := f.planBudget.Load(); got != budget {
		t.Fatalf("after Finish the plan budget is %d, want %d", got, budget)
	}
}

// TestRecordGraphLayStructure holds the counting fill of a record graph
// to the layout it promises: every row's columns strictly ascending, each
// kept pair's (I → J) slot in row I at column J with its transpose the
// (J → I) slot, both holding the pair's weight, every slot one of those
// two of exactly one kept pair, SlotRow each slot's row, PairSlot -1 for a
// dropped pair and Edges the kept pair IDs in order.
func TestRecordGraphLayStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, _, _ := batchMix(rng)
	s := make([]float64, g.NumPairs())
	var edges []int32
	for pid := range g.Pairs {
		if rng.Intn(4) > 0 {
			s[pid] = 1 - rng.Float64()
			edges = append(edges, int32(pid))
		}
	}
	rg := BuildRecordGraph(g, s, g.NumRecords)
	pat := rg.Pattern
	if pat.N != g.NumRecords || pat.NNZ() != 2*len(edges) || len(rg.S.Val) != pat.NNZ() || !slices.Equal(rg.Edges, edges) {
		t.Fatalf("%d nodes, %d slots, %d weights, %d edges; want %d, %d, %d, %d",
			pat.N, pat.NNZ(), len(rg.S.Val), len(rg.Edges), g.NumRecords, 2*len(edges), 2*len(edges), len(edges))
	}
	for i := 0; i < pat.N; i++ {
		for k := pat.RowPtr[i]; k < pat.RowPtr[i+1]; k++ {
			if rg.SlotRow[k] != int32(i) || k > pat.RowPtr[i] && pat.Col[k] <= pat.Col[k-1] {
				t.Fatalf("row %d slot %d: row %d, column %d after %d", i, k, rg.SlotRow[k], pat.Col[k], pat.Col[max(k-1, 0)])
			}
		}
	}
	seen := make([]bool, pat.NNZ())
	for pid, pr := range g.Pairs {
		a := rg.PairSlot[pid]
		if s[pid] == 0 {
			if a != -1 {
				t.Fatalf("dropped pair %d has slot %d", pid, a)
			}
			continue
		}
		b := pat.TSlot(a)
		if rg.SlotRow[a] != pr.I || pat.Col[a] != pr.J || rg.SlotRow[b] != pr.J || pat.Col[b] != pr.I ||
			pat.TSlot(b) != a || seen[a] || seen[b] {
			t.Fatalf("pair %d (%d, %d): slots %d and %d hold (%d, %d) and (%d, %d)",
				pid, pr.I, pr.J, a, b, rg.SlotRow[a], pat.Col[a], rg.SlotRow[b], pat.Col[b])
		}
		if rg.S.Val[a] != s[pid] || rg.S.Val[b] != s[pid] {
			t.Fatalf("pair %d: weights %g, %g; want %g", pid, rg.S.Val[a], rg.S.Val[b], s[pid])
		}
		seen[a], seen[b] = true, true
	}
}
