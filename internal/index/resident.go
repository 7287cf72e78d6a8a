package index

import (
	"slices"
)

// The resident read path. A resolver that keeps its per-component results
// between resolves needs only what changed since its last resolve: the
// components that hold a touched record, each as the local candidate graph
// fusion reads, plus the global pair order, so it can lay resident and
// fresh per-pair results out as the batch graph numbers them. Pending
// computes that without changing any state the index keeps. Commit adopts
// it once the resolver has succeeded, so a canceled resolve loses nothing.
//
// Why the touched components suffice: a mutation touches both endpoints of
// every pair it adds or removes, the mutated record, and every record
// holding a term whose kept or eligible status flipped. So a committed
// component with no touched record kept all its pairs. Each pair kept its
// eligible shared terms, and with them its first eligible term. Relative
// external-ID order and relative lexicographic term order never change.
// The component's pairs therefore keep their order relative to each
// other, and its local graph is unchanged. Conversely, every record of a
// committed component that held a touched record is itself touched or
// lies in a touched component now: a path to the touched record is
// either intact or broken first at a removed pair, whose endpoints are
// touched.

// resident is the committed state of the resident path.
type resident struct {
	// ordA, ordB and ordT are the global pair order of the last commit.
	// Per pair they hold its record handles (ordA the smaller external ID)
	// and the interned ID of its first eligible shared term in
	// lexicographic order.
	ordA, ordB, ordT []int32
	// compOf maps a record handle to its component's slot, or -1 when the
	// record is in no candidate pair.
	compOf []int32
	// slots is the slot high-water mark; free lists the unused slots below
	// it.
	slots int32
	free  []int32
	// comps is the number of committed components.
	comps int
}

// PendingComponent is one candidate-graph component that holds a record
// touched since the last commit.
type PendingComponent struct {
	// Records lists the component's record positions, ascending. A
	// record's index in the list is its local node ID.
	Records []int32
	// Graph is the component's local candidate graph. Its layout is the one
	// the batch graph's component localizes to: records in ascending
	// external-ID order; pairs ordered by (the lexicographic rank of their
	// first eligible shared term, local key); terms in lexicographic order,
	// each listing its pairs by ascending local key. Nil until Materialize.
	Graph *Graph
	// Slot is the resident slot the component occupies once committed.
	Slot int32
}

// Pending is what changed since the last Commit, as the resident path
// reads it. It stays valid until the next mutation.
type Pending struct {
	ix    *Index
	seq   uint64
	ready bool

	// IDs maps position to external ID, ascending. The slice is fresh and
	// belongs to the caller.
	IDs []string
	// Handles maps position to record handle. It aliases the index.
	Handles []int32
	// Touched counts the records touched since the last commit, including
	// deleted ones.
	Touched int
	// Comps lists the touched components by smallest position.
	Comps []PendingComponent
	// Dissolved lists the slots of committed components that held a
	// touched record. Their results no longer apply.
	Dissolved []int32
	// Components is the number of components once committed, and Slots
	// the slot high-water mark.
	Components, Slots int

	// Pairs and From are filled by Materialize. Pairs is the global pair
	// order over positions: exactly the Pairs of the batch graph. From[k]
	// is pair k's index in the previous commit's order when its component
	// is untouched, and ^j otherwise, where j counts the touched
	// components' pairs in Comps order and local pair order.
	Pairs []Pair
	From  []int32

	free             []int32
	ordA, ordB, ordT []int32
}

// Pending expands the records touched since the last commit to the
// components that now hold them and assigns each a slot. It changes no
// state the index keeps.
func (ix *Index) Pending() *Pending {
	n := len(ix.order)
	if cap(ix.pos) < len(ix.extID) {
		ix.pos = make([]int32, len(ix.extID))
	}
	ix.pos = ix.pos[:len(ix.extID)]
	pd := &Pending{ix: ix, seq: ix.seq, IDs: make([]string, n), Handles: ix.order, Touched: len(ix.dirty)}
	for p, rid := range ix.order {
		ix.pos[rid] = int32(p)
		pd.IDs[p] = ix.extID[rid]
	}
	for _, r := range ix.dirty {
		if s := ix.res.compOf[r]; s >= 0 {
			pd.Dissolved = append(pd.Dissolved, s)
		}
	}
	slices.Sort(pd.Dissolved)
	pd.Dissolved = slices.Compact(pd.Dissolved)

	// Breadth-first over the live pairs from every live touched record.
	// Adjacency rows may hold stale partners; the pair table decides.
	seen := ix.scratchMarked()
	var recs []int32 // record handles, one component after another
	defer func() {
		for _, r := range recs {
			seen[r] = false
		}
	}()
	//lint:ignore guardloop bounded by the touched components; a cold resolve walks the live pair graph once
	for _, r := range ix.dirty {
		if seen[r] || ix.extID[r] == "" {
			continue
		}
		seen[r] = true
		start := len(recs)
		recs = append(recs, r)
		for k := start; k < len(recs); k++ {
			x := recs[k]
			for _, y := range ix.adj[x] {
				if seen[y] {
					continue
				}
				if _, ok := ix.pairs[Key(x, y)]; !ok {
					continue
				}
				seen[y] = true
				recs = append(recs, y)
			}
		}
		if len(recs)-start < 2 {
			continue // no live pair: in no component
		}
		members := make([]int32, len(recs)-start)
		for k, rid := range recs[start:] {
			members[k] = ix.pos[rid]
		}
		slices.Sort(members)
		pd.Comps = append(pd.Comps, PendingComponent{Records: members})
	}
	slices.SortFunc(pd.Comps, func(a, b PendingComponent) int {
		return int(a.Records[0]) - int(b.Records[0])
	})

	// Touched components take the dissolved slots first, then free ones,
	// then fresh ones.
	avail := append(slices.Clone(pd.Dissolved), ix.res.free...)
	slots := ix.res.slots
	for ci := range pd.Comps {
		if ci < len(avail) {
			pd.Comps[ci].Slot = avail[ci]
		} else {
			pd.Comps[ci].Slot = slots
			slots++
		}
	}
	pd.free = avail[min(len(pd.Comps), len(avail)):]
	pd.Slots = int(slots)
	pd.Components = ix.res.comps - len(pd.Dissolved) + len(pd.Comps)
	return pd
}

// Materialize builds the local graph of every touched component and the
// global pair order: the committed order without the dissolved
// components' pairs, merged with the touched components' pairs sorted on
// their own. The cost follows the touched components plus one linear pass
// over the pairs; nothing corpus-wide is rebuilt or re-sorted.
func (pd *Pending) Materialize() {
	ix := pd.ix
	ix.ensureSorted()
	maxDF := ix.maxKeptDF()
	var fresh freshPairs
	for ci := range pd.Comps {
		c := &pd.Comps[ci]
		c.Graph = ix.localize(c.Records, maxDF, &fresh)
	}
	pd.merge(&fresh)
	pd.ready = true
}

// freshPairs collects the touched components' pairs in Comps order and
// local pair order: record handles and first eligible shared term.
type freshPairs struct {
	a, b, t []int32
}

// localPair is one pair of a component being localized.
type localPair struct {
	i, j   int32 // local endpoints, i < j
	first  int32 // first eligible shared term (interned ID)
	lo, hi int32 // its eligible shared terms: shared[lo:hi]
}

// localize builds one component's local graph from the pair table and
// appends its pairs to fresh in local pair order.
func (ix *Index) localize(recs []int32, maxDF int32, fresh *freshPairs) *Graph {
	rank := ix.rankOf
	var lps []localPair
	var shared []int32
	// Each pair is seen from its smaller position, so lps comes out in
	// ascending local key order.
	//lint:ignore guardloop bounded by one component's pairs × their records' term lists; the resolver polls its checkpoint per component
	for li, p := range recs {
		r := ix.order[p]
		start := len(lps)
		for _, q := range ix.adj[r] {
			if _, ok := ix.pairs[Key(r, q)]; !ok {
				continue
			}
			pq := ix.pos[q]
			if pq <= p {
				continue
			}
			lj, _ := slices.BinarySearch(recs, pq)
			lo := int32(len(shared))
			first := int32(-1)
			ti, tq := ix.terms[r], ix.terms[q]
			for x, y := 0, 0; x < len(ti) && y < len(tq); {
				switch {
				case ti[x] < tq[y]:
					x++
				case ti[x] > tq[y]:
					y++
				default:
					if t := ti[x]; ix.eligAt(t, ix.df[t], maxDF) {
						shared = append(shared, t)
						if first < 0 || rank[t] < rank[first] {
							first = t
						}
					}
					x++
					y++
				}
			}
			lps = append(lps, localPair{i: int32(li), j: int32(lj), first: first, lo: lo, hi: int32(len(shared))})
		}
		row := lps[start:]
		slices.SortFunc(row, func(a, b localPair) int { return int(a.j) - int(b.j) })
	}

	// Pair IDs: by first eligible shared term, then local key.
	np := len(lps)
	byID := make([]int32, np)
	for k := range byID {
		byID[k] = int32(k)
	}
	slices.SortStableFunc(byID, func(a, b int32) int {
		return int(rank[lps[a].first]) - int(rank[lps[b].first])
	})
	idOf := make([]int32, np)
	g := &Graph{
		NumRecords: len(recs),
		Pairs:      make([]Pair, np),
		Index:      make(map[uint64]int32, np),
	}
	for id, k := range byID {
		lp := lps[k]
		idOf[k] = int32(id)
		g.Pairs[id] = Pair{I: lp.i, J: lp.j}
		g.Index[Key(lp.i, lp.j)] = int32(id)
		fresh.a = append(fresh.a, ix.order[recs[lp.i]])
		fresh.b = append(fresh.b, ix.order[recs[lp.j]])
		fresh.t = append(fresh.t, lp.first)
	}

	// Terms in lexicographic order; each term's pairs by ascending local
	// key, laid out in one backing array.
	terms := slices.Clone(shared)
	slices.SortFunc(terms, func(a, b int32) int { return int(rank[a]) - int(rank[b]) })
	terms = slices.Compact(terms)
	localTerm := func(t int32) int {
		lt, _ := slices.BinarySearchFunc(terms, rank[t], func(e, target int32) int { return int(rank[e]) - int(target) })
		return lt
	}
	off := make([]int32, len(terms)+1)
	for _, t := range shared {
		off[localTerm(t)+1]++
	}
	for lt := range terms {
		off[lt+1] += off[lt]
	}
	backing := make([]int32, len(shared))
	fill := slices.Clone(off[:len(terms)])
	for k, lp := range lps {
		for _, t := range shared[lp.lo:lp.hi] {
			lt := localTerm(t)
			backing[fill[lt]] = idOf[k]
			fill[lt]++
		}
	}
	g.NumTerms = len(terms)
	g.TermPairs = make([][]int32, len(terms))
	for lt := range terms {
		g.TermPairs[lt] = backing[off[lt]:off[lt+1]:off[lt+1]]
	}
	g.BuildPairIndex()
	return g
}

// merge lays out the global pair order: the committed pairs of untouched
// components, still in order, merged with the touched pairs sorted by
// (first-term rank, smaller position, larger position) — the batch
// graph's numbering.
func (pd *Pending) merge(fresh *freshPairs) {
	ix := pd.ix
	pos, rank := ix.pos, ix.rankOf
	cmp := func(ta, aa, ab, tb, ba, bb int32) int {
		if ra, rb := rank[ta], rank[tb]; ra != rb {
			return int(ra) - int(rb)
		}
		if pa, pb := pos[aa], pos[ba]; pa != pb {
			return int(pa) - int(pb)
		}
		return int(pos[ab]) - int(pos[bb])
	}
	order := make([]int32, len(fresh.a))
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(x, y int32) int {
		return cmp(fresh.t[x], fresh.a[x], fresh.b[x], fresh.t[y], fresh.a[y], fresh.b[y])
	})

	res := &ix.res
	dead := make([]bool, res.slots)
	for _, s := range pd.Dissolved {
		dead[s] = true
	}
	live := func(k int) bool { return !dead[res.compOf[res.ordA[k]]] }
	total := len(order)
	for k := range res.ordA {
		if live(k) {
			total++
		}
	}
	pd.Pairs = make([]Pair, 0, total)
	pd.From = make([]int32, 0, total)
	pd.ordA = make([]int32, 0, total)
	pd.ordB = make([]int32, 0, total)
	pd.ordT = make([]int32, 0, total)
	emit := func(a, b, t, from int32) {
		pd.Pairs = append(pd.Pairs, Pair{I: pos[a], J: pos[b]})
		pd.From = append(pd.From, from)
		pd.ordA = append(pd.ordA, a)
		pd.ordB = append(pd.ordB, b)
		pd.ordT = append(pd.ordT, t)
	}
	k, f := 0, 0
	//lint:ignore guardloop one linear pass over the candidate pairs; the merge never compares more than it emits
	for {
		for k < len(res.ordA) && !live(k) {
			k++
		}
		switch {
		case k < len(res.ordA) && (f == len(order) ||
			cmp(res.ordT[k], res.ordA[k], res.ordB[k], fresh.t[order[f]], fresh.a[order[f]], fresh.b[order[f]]) < 0):
			emit(res.ordA[k], res.ordB[k], res.ordT[k], int32(k))
			k++
		case f < len(order):
			j := order[f]
			emit(fresh.a[j], fresh.b[j], fresh.t[j], ^j)
			f++
		default:
			return
		}
	}
}

// Commit adopts a materialized Pending as the resident state: the next
// Pending reports only what is touched after this call. It reports false,
// changing nothing, when pd is not materialized or a mutation came after
// it.
func (ix *Index) Commit(pd *Pending) bool {
	if pd.ix != ix || !pd.ready || pd.seq != ix.seq {
		return false
	}
	res := &ix.res
	for _, r := range ix.dirty {
		res.compOf[r] = -1
		ix.isDirty[r] = false
	}
	//lint:ignore guardloop output-sized: one write per record of the touched components Pending already walked
	for _, c := range pd.Comps {
		for _, p := range c.Records {
			res.compOf[ix.order[p]] = c.Slot
		}
	}
	res.ordA, res.ordB, res.ordT = pd.ordA, pd.ordB, pd.ordT
	res.slots = int32(pd.Slots)
	res.free = pd.free
	res.comps = pd.Components
	ix.dirty = nil
	return true
}
