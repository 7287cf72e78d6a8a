// Package cluster turns a set of matched record pairs into entity clusters.
// The ground-truth record graph of §VI-A is a union of disjoint cliques, so
// the natural output representation of entity resolution is the set of
// connected components of the matched-pair graph (transitive closure).
//
// Clusters are ordered by size descending, ties broken by smallest member,
// members sorted ascending; unmatched records are singleton clusters, so
// the multi-member groups come first and the singletons follow in
// ascending order. Layout keeps that output resident for a record set
// partitioned into candidate-graph components: matched pairs never cross a
// component, so regrouping the components a change touched and merging
// their groups into the kept order reproduces it. FromMatches is the cold
// build of the same layout.
package cluster

import (
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/index"
)

// FromMatches computes entity clusters from the flagged candidate pairs.
// Every record appears in exactly one cluster; unmatched records form
// singleton clusters. Clusters are ordered by size descending, ties broken
// by smallest member, members sorted ascending.
//
// It builds a Layout from nothing, with every record in one component and
// record handles equal to positions, so the cold output and the resident
// one share their grouping and ordering rule.
func FromMatches(numRecords int, pairs []index.Pair, matched []bool) [][]int {
	if numRecords == 0 {
		return nil
	}
	ids := make([]int32, numRecords)
	for i := range ids {
		ids[i] = int32(i)
	}
	var l Layout
	l.Group(0, ids, ids, pairs, matched)
	return l.Clusters(ids, numRecords)
}

// Layout is the resident cluster layout of a record set whose candidate
// graph is partitioned into components, each identified by a slot. It
// keeps every committed multi-member group in one order, size descending
// then smallest member, and their members in the same order, each group's
// ascending, both as record handles and as positions. Records keep their
// relative order when others are inserted or deleted, so the order
// survives position shifts, and a member's position is looked up by its
// handle only when it may have moved. Records in no group are the
// singletons.
//
// An update runs Begin, optionally Moved, Group once per touched
// component, Clusters, and Commit once the caller adopts the result. Until
// Commit the committed layout is unchanged but for the member positions
// Clusters looked up, which name the same records, so an update abandoned
// midway loses nothing; the next Begin discards it.
//
// A Layout is not safe for concurrent use.
type Layout struct {
	// order lists the committed groups in cluster order; hnd and pos list
	// their members in the same order. A member's pos is its position at
	// the last Commit, or at a later Clusters that looked it up.
	order    []group
	pos, hnd []int32
	// slotGroups and slotRecs count each slot's committed groups and the
	// records in them; groups and grouped are the totals.
	slotGroups, slotRecs []int32
	groups, grouped      int

	// The update in progress. dead marks the dissolved slots, and moved
	// is the first position a committed member may have left. fresh lists
	// the new groups as Group found them, their members' positions in
	// memPos and handles in memHnd from off. Clusters sorts them into ins
	// (with insOff) and sets at[f], the number of surviving committed
	// groups ahead of ins[f]; Commit sets memAt[f], the number of those
	// groups' members.
	dissolved      []int32
	dead           []bool
	moved          int32
	fresh, ins     []group
	off, insOff    []int32
	memPos, memHnd []int32
	perm, at       []int32
	memAt          []int32
	ready          bool

	// Grouping scratch: union-find and per-root counters over one
	// component, and a bit per position over the record set.
	uf       graph.UnionFind
	cnt, cur []int32
	marks    []uint64

	// lookups counts the committed member positions looked up by handle.
	lookups int64
}

// group is one multi-member cluster: its size and the slot of the
// component holding it.
type group struct {
	size, slot int32
}

// Begin starts an update in which the components at the dissolved slots
// are gone or regrouped: their groups drop out of the layout. Every
// committed position may have moved until Moved says otherwise. It
// discards any update that was not committed.
func (l *Layout) Begin(dissolved []int32) {
	for _, s := range l.dissolved {
		l.dead[s] = false
	}
	l.dissolved = append(l.dissolved[:0], dissolved...)
	for _, s := range dissolved {
		if int(s) >= len(l.slotGroups) {
			l.slotGroups = index.Grow(l.slotGroups, int(s)+1)
			l.slotRecs = index.Grow(l.slotRecs, int(s)+1)
		}
	}
	l.dead = index.Grow(l.dead, len(l.slotGroups))
	for _, s := range dissolved {
		l.dead[s] = true
	}
	l.moved = 0
	l.fresh, l.off, l.memPos, l.memHnd = l.fresh[:0], l.off[:0], l.memPos[:0], l.memHnd[:0]
	l.ready = false
}

// Moved tells the update in progress that every record at a committed
// position below from still holds it, so Clusters copies those positions
// rather than looking them up by handle.
func (l *Layout) Moved(from int) {
	l.moved = int32(from)
}

// Lookups returns how many committed member positions updates have looked
// up by record handle so far: none for a member below Moved's bound.
func (l *Layout) Lookups() int64 { return l.lookups }

// Group adds the multi-member groups of one component, which takes the
// given slot. records lists its record positions ascending (a record's
// index in the list is its local node), handles maps position to record
// handle, and pairs with matched flag the component's local pairs. The
// work and scratch follow the component's size.
func (l *Layout) Group(slot int32, records, handles []int32, pairs []index.Pair, matched []bool) {
	m := len(records)
	l.uf.Reset(m)
	for k, p := range pairs {
		if matched[k] {
			l.uf.Union(int(p.I), int(p.J))
		}
	}
	l.cnt = index.Grow(l.cnt[:0], m)
	l.cur = index.Grow(l.cur[:0], m)
	for i := range m {
		l.cnt[l.uf.Find(i)]++
	}
	// Ascending, so a set's first member seen is its smallest; cnt[r]
	// drops to 0 once r's group is open.
	for i := range m {
		r := l.uf.Find(i)
		switch c := l.cnt[r]; {
		case c == 1:
			continue
		case c > 1:
			l.cur[r] = int32(len(l.memPos))
			l.fresh = append(l.fresh, group{size: c, slot: slot})
			l.off = append(l.off, int32(len(l.memPos)))
			l.memPos = index.Grow(l.memPos, len(l.memPos)+int(c))
			l.memHnd = index.Grow(l.memHnd, len(l.memHnd)+int(c))
			l.cnt[r] = 0
		}
		l.memPos[l.cur[r]] = records[i]
		l.memHnd[l.cur[r]] = handles[records[i]]
		l.cur[r]++
	}
	clear(l.cnt)
}

// posOf returns the position committed member k holds now, looking it up
// by handle at or after moved and keeping what it finds: a record at or
// after the first position an edit moved stays there, so the kept
// position is still looked up until the next Commit says otherwise.
func (l *Layout) posOf(k int, pos []int32) int32 {
	p := l.pos[k]
	if p >= l.moved {
		l.lookups++
		p = pos[l.hnd[k]]
		l.pos[k] = p
	}
	return p
}

// Clusters returns the cluster list of the updated layout over n records,
// pos mapping record handle to position. The slices are fresh and belong
// to the caller: the groups in order, then every other record as a
// singleton in ascending position.
func (l *Layout) Clusters(pos []int32, n int) [][]int {
	// Sort the new groups, then place them among the surviving ones. A
	// group is ordered by its size, then by its head, its smallest
	// member's position.
	cmp := func(xSize, xHead, ySize, yHead int32) int {
		if xSize != ySize {
			return int(ySize) - int(xSize)
		}
		return int(xHead) - int(yHead)
	}
	l.perm = l.perm[:0]
	for f := range l.fresh {
		l.perm = append(l.perm, int32(f))
	}
	slices.SortFunc(l.perm, func(x, y int32) int {
		return cmp(l.fresh[x].size, l.memPos[l.off[x]], l.fresh[y].size, l.memPos[l.off[y]])
	})
	l.ins, l.insOff = l.ins[:0], l.insOff[:0]
	for _, f := range l.perm {
		l.ins = append(l.ins, l.fresh[f])
		l.insOff = append(l.insOff, l.off[f])
	}
	l.at = index.Grow(l.at[:0], len(l.ins))
	f, live, k := 0, int32(0), 0
	for _, g := range l.order {
		if f == len(l.ins) {
			break
		}
		head := k
		k += int(g.size)
		if l.dead[g.slot] {
			continue
		}
		hp := l.posOf(head, pos)
		for ; f < len(l.ins) && cmp(l.ins[f].size, l.memPos[l.insOff[f]], g.size, hp) < 0; f++ {
			l.at[f] = live
		}
		live++
	}
	for ; f < len(l.ins); f++ {
		l.at[f] = live
	}

	groups, grouped := l.groups+len(l.ins), l.grouped
	for _, s := range l.dissolved {
		groups -= int(l.slotGroups[s])
		grouped -= int(l.slotRecs[s])
	}
	for _, g := range l.ins {
		grouped += int(g.size)
	}
	out := make([][]int, groups+n-grouped)
	members := make([]int, n)
	l.marks = index.Grow(l.marks, (n+63)/64)
	w, c := 0, 0
	// put writes the next member of a group.
	put := func(p int32) {
		members[w] = int(p)
		l.marks[p>>6] |= 1 << (p & 63)
		w++
	}
	// fresh writes ins[f].
	fresh := func(f int) {
		lo, size := int(l.insOff[f]), int(l.ins[f].size)
		for _, p := range l.memPos[lo : lo+size] {
			put(p)
		}
		out[c] = members[w-size : w : w]
		c++
	}
	f, live, k = 0, 0, 0
	for _, g := range l.order {
		lo := k
		k += int(g.size)
		if l.dead[g.slot] {
			continue
		}
		for ; f < len(l.ins) && l.at[f] == live; f++ {
			fresh(f)
		}
		for i := lo; i < k; i++ {
			put(l.posOf(i, pos))
		}
		out[c] = members[w-int(g.size) : w : w]
		c++
		live++
	}
	for ; f < len(l.ins); f++ {
		fresh(f)
	}
	// The singletons are the unmarked positions, word by word.
	for wi, word := range l.marks {
		free := ^word
		if rest := n - wi*64; rest < 64 {
			free &= 1<<rest - 1
		}
		for ; free != 0; free &= free - 1 {
			members[w] = wi*64 + bits.TrailingZeros64(free)
			out[c] = members[w : w+1 : w+1]
			w++
			c++
		}
		l.marks[wi] = 0
	}
	l.ready = true
	return out
}

// Commit adopts the update Clusters laid out: the dissolved slots' groups
// and their members leave the layout, and the new groups and theirs enter
// it. The order and the members are spliced in place. Without a Clusters
// since Begin it does nothing.
func (l *Layout) Commit() {
	if !l.ready {
		return
	}
	l.spliceMembers()
	l.order = index.Splice(l.order, func(g group) bool { return l.dead[g.slot] }, l.ins, l.at)
	for _, s := range l.dissolved {
		l.groups -= int(l.slotGroups[s])
		l.grouped -= int(l.slotRecs[s])
		l.slotGroups[s], l.slotRecs[s] = 0, 0
		l.dead[s] = false
	}
	l.dissolved = l.dissolved[:0]
	for _, g := range l.ins {
		if int(g.slot) >= len(l.slotGroups) {
			l.slotGroups = index.Grow(l.slotGroups, int(g.slot)+1)
			l.slotRecs = index.Grow(l.slotRecs, int(g.slot)+1)
		}
		l.slotGroups[g.slot]++
		l.slotRecs[g.slot] += g.size
		l.groups++
		l.grouped += int(g.size)
	}
	l.fresh, l.off, l.memPos, l.memHnd, l.ins, l.insOff = l.fresh[:0], l.off[:0], l.memPos[:0], l.memHnd[:0], l.ins[:0], l.insOff[:0]
	l.ready = false
	// A cold build or a rebuild regroups every component; holding its
	// scratch would keep a copy of the layout alive for updates that
	// regroup a few records.
	if cap(l.memPos) > keepScratch {
		l.fresh, l.ins, l.off, l.insOff, l.memPos, l.memHnd, l.perm, l.at, l.memAt = nil, nil, nil, nil, nil, nil, nil, nil, nil
	}
}

// spliceMembers drops the dissolved groups' members from pos and hnd and
// inserts each new group's members where Clusters placed the group, in one
// forward and one backward pass over the committed order.
func (l *Layout) spliceMembers() {
	l.memAt = index.Grow(l.memAt[:0], len(l.ins))
	w, r, f, live := 0, 0, 0, int32(0)
	for _, g := range l.order {
		n := int(g.size)
		if l.dead[g.slot] {
			r += n
			continue
		}
		for ; f < len(l.ins) && l.at[f] == live; f++ {
			l.memAt[f] = int32(w)
		}
		copy(l.pos[w:], l.pos[r:r+n])
		copy(l.hnd[w:], l.hnd[r:r+n])
		w, r = w+n, r+n
		live++
	}
	for ; f < len(l.ins); f++ {
		l.memAt[f] = int32(w)
	}
	total := w + len(l.memPos)
	l.pos = index.GrowSlack(l.pos[:w], total)
	l.hnd = index.GrowSlack(l.hnd[:w], total)
	for f := len(l.ins) - 1; f >= 0; f-- {
		at, n := int(l.memAt[f]), int(l.ins[f].size)
		// Move the kept members after the group's place right, then write
		// the group.
		shift := total - w
		copy(l.pos[at+shift:], l.pos[at:w])
		copy(l.hnd[at+shift:], l.hnd[at:w])
		lo := int(l.insOff[f])
		copy(l.pos[at+shift-n:], l.memPos[lo:lo+n])
		copy(l.hnd[at+shift-n:], l.memHnd[lo:lo+n])
		w, total = at, at+shift-n
	}
}

// keepScratch is the most grouped records whose update scratch Commit
// keeps for the next update.
const keepScratch = 1 << 12
