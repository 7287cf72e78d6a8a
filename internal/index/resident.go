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
// holding a term whose kept or eligible status flipped, bar one case: when
// the term's df stepped between 1 and 2 with its kept status unchanged,
// the other holder is left out, as the only pair the term can enter or
// leave ends at the mutated record. So a committed component with no
// touched record kept all its pairs. Each pair kept its eligible shared
// terms, and with them its first eligible term. Relative external-ID
// order and relative lexicographic term order never change. The
// component's pairs therefore keep their order relative to each other,
// and its local graph is unchanged. Conversely, every record of a
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

	// shift is the first record position an insert or delete moved since
	// the last commit: every earlier position holds the record it held
	// then. Pending refreshes pos from there on.
	shift int

	// commits counts Commits, and pendings the Pendings made.
	commits, pendings uint64

	// dead marks the slots one Pending dissolves, deadSlots lists them and
	// deadGen names that Pending. The marks are scratch: whichever Pending
	// reads them next re-marks its own.
	dead      []bool
	deadSlots []int32
	deadGen   uint64

	// work counts the per-record work Pendings have done.
	work ResidentWork
}

// ResidentWork counts the per-record work of the resident path: the
// record positions Pending refreshed, and the component slots it looked
// up by record handle. A mutation that moves no position and touches k
// records costs 0 and k, however large the index.
type ResidentWork struct {
	PositionsRefreshed, SlotLookups int64
}

// ResidentWork returns the resident path's work counters so far.
func (ix *Index) ResidentWork() ResidentWork { return ix.res.work }

// orderedPair is one pair of the global order: its record handles (a the
// smaller external ID), the interned ID of its first eligible shared term
// in lexicographic order, and the slot of the component holding it.
type orderedPair struct {
	a, b, t, slot int32
}

// PendingComponent is one candidate-graph component that holds a record
// touched since the last commit.
type PendingComponent struct {
	// Records lists the component's record positions, ascending. A
	// record's index in the list is its local node ID.
	Records []int32
	// Graph is the component's local candidate graph: its records in
	// ascending external-ID order and its terms in lexicographic order,
	// laid out by NewGraph. It equals the batch graph's component
	// localized the same way. Nil until Materialize.
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
	// Shift is the first position whose record an insert or delete moved
	// since the last commit: every earlier position holds the record it
	// held then. It is len(IDs) when nothing moved.
	Shift int
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
// state the index keeps but its position scratch, which it refreshes from
// the first position an insert or delete moved: an overwrite moves none.
func (ix *Index) Pending() *Pending {
	ix.syncOrder()
	res := &ix.res
	n := len(ix.order)
	ix.pos = Grow(ix.pos, len(ix.extID))
	shift := min(res.shift, n)
	for p := shift; p < n; p++ {
		ix.pos[ix.order[p]] = int32(p)
	}
	res.work.PositionsRefreshed += int64(n - shift)
	res.pendings++
	pd := &Pending{
		ix: ix, seq: ix.seq, gen: res.pendings, base: res.commits,
		IDs: slices.Clone(ix.ids), Handles: ix.order, Pos: ix.pos, Shift: shift, Touched: len(ix.dirty),
	}
	res.work.SlotLookups += int64(len(ix.dirty))
	for _, r := range ix.dirty {
		if s := res.compOf[r]; s >= 0 {
			pd.Dissolved = append(pd.Dissolved, s)
		}
	}
	slices.Sort(pd.Dissolved)
	pd.Dissolved = slices.Compact(pd.Dissolved)

	// Breadth-first over the rows from every live touched record.
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
	avail := append(slices.Clone(pd.Dissolved), res.free...)
	slots := res.slots
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
	pd.Components = res.comps - len(pd.Dissolved) + len(pd.Comps)
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
		c.Graph = ix.localize(c.Records, c.Slot, maxDF, &fresh)
	}
	pd.place(fresh)
	pd.ready = true
}

// localize builds one component's local graph from the rows and appends
// its pairs, tagged with the component's slot, to fresh in local pair
// order.
func (ix *Index) localize(recs []int32, slot, maxDF int32, fresh *[]orderedPair) *Graph {
	rank := ix.rankOf
	var pairs []Pair
	var ends []int32 // pair k's eligible shared terms are shared[ends[k-1]:ends[k]]
	var shared []int32
	// Each pair is seen from its smaller position.
	//lint:ignore guardloop bounded by one component's pairs × their records' term lists; the resolver polls its checkpoint per component
	for li, p := range recs {
		r := ix.order[p]
		for _, q := range ix.adj[r] {
			pq := ix.pos[q]
			if pq <= p {
				continue
			}
			lj, _ := slices.BinarySearch(recs, pq)
			shared = ix.appendShared(shared, r, q, maxDF)
			pairs = append(pairs, Pair{I: int32(li), J: int32(lj)})
			ends = append(ends, int32(len(shared)))
		}
	}

	// Local terms are the component's terms in lexicographic order; each
	// pair's list is rewritten in place to ascending local IDs.
	terms := slices.Clone(shared)
	slices.SortFunc(terms, func(a, b int32) int { return int(rank[a]) - int(rank[b]) })
	terms = slices.Compact(terms)
	lists := make([][]int32, len(pairs))
	lo := int32(0)
	for k, hi := range ends {
		list := shared[lo:hi:hi]
		for x, t := range list {
			lt, _ := slices.BinarySearchFunc(terms, rank[t], func(e, target int32) int { return int(rank[e]) - int(target) })
			list[x] = int32(lt)
		}
		sortInt32(list)
		lists[k], lo = list, hi
	}
	g := NewGraph(len(recs), len(terms), pairs, lists)
	for id, pr := range g.Pairs {
		first := terms[g.PairTerms[g.PairTermPtr[id]]]
		*fresh = append(*fresh, orderedPair{a: ix.order[recs[pr.I]], b: ix.order[recs[pr.J]], t: first, slot: slot})
	}
	return g
}

// appendShared appends the eligible terms records a and b share to dst,
// in term-ID order.
func (ix *Index) appendShared(dst []int32, a, b, maxDF int32) []int32 {
	ta, tb := ix.terms[a], ix.terms[b]
	for x, y := 0, 0; x < len(ta) && y < len(tb); {
		switch {
		case ta[x] < tb[y]:
			x++
		case ta[x] > tb[y]:
			y++
		default:
			if t := ta[x]; ix.eligAt(t, ix.df[t], maxDF) {
				dst = append(dst, t)
			}
			x++
			y++
		}
	}
	return dst
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
	return pd.ix.res.dead[op.slot]
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

// Splice removes in place the elements of s that drop reports (none when
// drop is nil), then inserts ins[f] before the at[f]-th element that
// stayed; at is ascending, and equal entries keep the order of ins. It
// returns the result, which reuses s's backing array when it fits, and
// runs in one forward and one backward pass without comparing elements.
func Splice[T any](s []T, drop func(T) bool, ins []T, at []int32) []T {
	kept := len(s)
	if drop != nil {
		kept = 0
		for _, v := range s {
			if !drop(v) {
				s[kept] = v
				kept++
			}
		}
	}
	s = GrowSlack(s[:kept], kept+len(ins))
	r, w := kept, len(s)
	// Each run of kept elements between two insertion points moves in one
	// copy.
	for f := len(ins) - 1; f >= 0; f-- {
		k := r - int(at[f])
		copy(s[w-k:w], s[r-k:r])
		r, w = r-k, w-k-1
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
	res.shift = len(ix.order)
	ix.dirty = nil
	return true
}
