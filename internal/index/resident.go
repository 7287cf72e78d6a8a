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
	// ord is the global pair order of the last commit.
	ord []orderedPair
	// compOf maps a record handle to its component's slot, or -1 when the
	// record is in no candidate pair.
	compOf []int32
	// slotPairs counts each slot's committed pairs.
	slotPairs []int32
	// slots is the slot high-water mark; free lists the unused slots below
	// it.
	slots int32
	free  []int32
	// comps is the number of committed components.
	comps int

	// commits counts Commits, and pendings the Pendings made.
	commits, pendings uint64

	// dead marks the slots one Pending dissolves, deadSlots lists them and
	// deadGen names that Pending. The marks are scratch: whichever Pending
	// reads them next re-marks its own.
	dead      []bool
	deadSlots []int32
	deadGen   uint64
}

// orderedPair is one pair of the global order: its record handles (a the
// smaller external ID) and the interned ID of its first eligible shared
// term in lexicographic order.
type orderedPair struct {
	a, b, t int32
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
// reads it. It stays valid until the next mutation or Commit.
type Pending struct {
	ix             *Index
	seq, gen, base uint64
	ready          bool

	// IDs maps position to external ID, ascending. The slice is fresh and
	// belongs to the caller.
	IDs []string
	// Handles maps position to record handle, and Pos record handle to
	// position. Both alias the index.
	Handles, Pos []int32
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
	// NumPairs is the number of pairs once committed, exactly the batch
	// graph's. Materialize sets it; Each walks them.
	NumPairs int

	free []int32
	// fresh holds the touched components' pairs in global order, freshFrom
	// each one's index in Comps order and local pair order, and at[f] the
	// number of surviving committed pairs that precede fresh[f].
	fresh     []orderedPair
	freshFrom []int32
	at        []int32
}

// Pending expands the records touched since the last commit to the
// components that now hold them and assigns each a slot. It changes no
// state the index keeps.
func (ix *Index) Pending() *Pending {
	n := len(ix.order)
	ix.pos = Grow(ix.pos, len(ix.extID))
	ix.res.pendings++
	pd := &Pending{
		ix: ix, seq: ix.seq, gen: ix.res.pendings, base: ix.res.commits,
		IDs: make([]string, n), Handles: ix.order, Pos: ix.pos, Touched: len(ix.dirty),
	}
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

// Materialize builds the local graph of every touched component and places
// their pairs in the global order: the committed order without the
// dissolved components' pairs, merged with the touched pairs sorted on
// their own. The cost follows the touched components plus a scan of the
// committed order that stops once every touched pair is placed; nothing
// corpus-wide is rebuilt or re-sorted.
func (pd *Pending) Materialize() {
	ix := pd.ix
	ix.ensureSorted()
	maxDF := ix.maxKeptDF()
	var fresh []orderedPair
	for ci := range pd.Comps {
		c := &pd.Comps[ci]
		c.Graph = ix.localize(c.Records, maxDF, &fresh)
	}
	pd.place(fresh)
	pd.ready = true
}

// localPair is one pair of a component being localized.
type localPair struct {
	i, j   int32 // local endpoints, i < j
	first  int32 // first eligible shared term (interned ID)
	lo, hi int32 // its eligible shared terms: shared[lo:hi]
}

// localize builds one component's local graph from the pair table and
// appends its pairs to fresh in local pair order.
func (ix *Index) localize(recs []int32, maxDF int32, fresh *[]orderedPair) *Graph {
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
		*fresh = append(*fresh, orderedPair{a: ix.order[recs[lp.i]], b: ix.order[recs[lp.j]], t: lp.first})
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

// cmpPairs orders two pairs as the batch graph numbers them: by first-term
// rank, then smaller position, then larger position.
func (ix *Index) cmpPairs(x, y orderedPair) int {
	if rx, ry := ix.rankOf[x.t], ix.rankOf[y.t]; rx != ry {
		return int(rx) - int(ry)
	}
	if px, py := ix.pos[x.a], ix.pos[y.a]; px != py {
		return int(px) - int(py)
	}
	return int(ix.pos[x.b]) - int(ix.pos[y.b])
}

// place sorts the touched pairs into global order and finds where each
// one goes among the committed pairs that survive.
func (pd *Pending) place(fresh []orderedPair) {
	ix := pd.ix
	res := &ix.res
	pd.freshFrom = make([]int32, len(fresh))
	for j := range pd.freshFrom {
		pd.freshFrom[j] = int32(j)
	}
	slices.SortFunc(pd.freshFrom, func(x, y int32) int { return ix.cmpPairs(fresh[x], fresh[y]) })
	pd.fresh = make([]orderedPair, len(fresh))
	for f, j := range pd.freshFrom {
		pd.fresh[f] = fresh[j]
	}

	pd.markDead()
	pd.at = make([]int32, len(fresh))
	f, live := 0, int32(0)
	//lint:ignore guardloop one scan of the committed pairs, stopping once the touched pairs are placed
	for _, op := range res.ord {
		if f == len(pd.fresh) {
			break
		}
		if pd.dropped(op) {
			continue
		}
		for f < len(pd.fresh) && ix.cmpPairs(pd.fresh[f], op) < 0 {
			pd.at[f] = live
			f++
		}
		live++
	}
	for ; f < len(pd.fresh); f++ {
		pd.at[f] = live
	}
	pd.NumPairs = len(res.ord) + len(fresh)
	for _, s := range pd.Dissolved {
		pd.NumPairs -= int(res.slotPairs[s])
	}
}

// markDead marks pd's dissolved slots in the index's dead-slot scratch,
// clearing whatever an earlier Pending marked.
func (pd *Pending) markDead() {
	res := &pd.ix.res
	if res.deadGen == pd.gen {
		return
	}
	for _, s := range res.deadSlots {
		res.dead[s] = false
	}
	res.dead = Grow(res.dead, int(res.slots))
	for _, s := range pd.Dissolved {
		res.dead[s] = true
	}
	res.deadSlots, res.deadGen = pd.Dissolved, pd.gen
}

// dropped reports whether a committed pair's component was dissolved.
func (pd *Pending) dropped(op orderedPair) bool {
	res := &pd.ix.res
	return res.dead[res.compOf[op.a]]
}

// Each calls fn for every pair of the global order, in order, with its
// endpoints' positions and its origin: the pair's index in the previous
// commit's order when its component is untouched, and ^j otherwise, where
// j counts the touched components' pairs in Comps order and local pair
// order. pd must be materialized.
func (pd *Pending) Each(fn func(pr Pair, from int32)) {
	ix := pd.ix
	pos := ix.pos
	pd.markDead()
	f, live := 0, int32(0)
	//lint:ignore guardloop one linear pass over the candidate pairs; the caller polls its checkpoint around it
	for k, op := range ix.res.ord {
		if pd.dropped(op) {
			continue
		}
		for ; f < len(pd.fresh) && pd.at[f] == live; f++ {
			fp := pd.fresh[f]
			fn(Pair{I: pos[fp.a], J: pos[fp.b]}, ^pd.freshFrom[f])
		}
		fn(Pair{I: pos[op.a], J: pos[op.b]}, int32(k))
		live++
	}
	for ; f < len(pd.fresh); f++ {
		fp := pd.fresh[f]
		fn(Pair{I: pos[fp.a], J: pos[fp.b]}, ^pd.freshFrom[f])
	}
}

// Splice removes in place the elements of s that drop reports, then
// inserts ins[f] before the at[f]-th element that stayed; at is
// ascending, and equal entries keep the order of ins. It returns the
// result, which reuses s's backing array when it fits, and runs in one
// forward and one backward pass without comparing elements.
func Splice[T any](s []T, drop func(T) bool, ins []T, at []int32) []T {
	kept := 0
	for _, v := range s {
		if !drop(v) {
			s[kept] = v
			kept++
		}
	}
	s = GrowSlack(s[:kept], kept+len(ins))
	r, w := kept, len(s)
	//lint:ignore guardloop moves each kept element once; a Commit that must not stop halfway
	for f := len(ins) - 1; f >= 0; f-- {
		for ; r > int(at[f]); r-- {
			w--
			s[w] = s[r-1]
		}
		w--
		s[w] = ins[f]
	}
	return s
}

// GrowSlack extends s to length n. When the capacity falls short it
// reallocates with 1/64 slack, so a resident array that grows a few
// elements at a time reallocates rarely while holding little unused
// memory.
func GrowSlack[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	grown := make([]T, n, n+n/64)
	copy(grown, s)
	return grown
}

// Commit adopts a materialized Pending as the resident state: the next
// Pending reports only what is touched after this call. It reports false,
// changing nothing, when pd is not materialized or a mutation or another
// Commit came after it. The committed pair order is spliced in place.
func (ix *Index) Commit(pd *Pending) bool {
	if pd.ix != ix || !pd.ready || pd.seq != ix.seq || pd.base != ix.res.commits {
		return false
	}
	res := &ix.res
	res.commits++
	pd.markDead()
	res.ord = Splice(res.ord, pd.dropped, pd.fresh, pd.at)
	res.slotPairs = Grow(res.slotPairs, pd.Slots)
	for _, s := range pd.Dissolved {
		res.slotPairs[s] = 0
	}
	for _, r := range ix.dirty {
		res.compOf[r] = -1
		ix.isDirty[r] = false
	}
	//lint:ignore guardloop output-sized: one write per record of the touched components Pending already walked
	for _, c := range pd.Comps {
		res.slotPairs[c.Slot] = int32(len(c.Graph.Pairs))
		for _, p := range c.Records {
			res.compOf[ix.order[p]] = c.Slot
		}
	}
	for _, s := range res.deadSlots {
		res.dead[s] = false
	}
	res.deadSlots, res.deadGen = nil, 0
	res.slots = int32(pd.Slots)
	res.free = pd.free
	res.comps = pd.Components
	ix.dirty = nil
	return true
}
