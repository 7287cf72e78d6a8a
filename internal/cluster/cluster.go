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
// keeps every committed multi-member group, its members stored as record
// handles linked in ascending position order, and one order of all of
// them: size descending, then smallest member. Records keep their
// relative order when others are inserted or deleted, so the order
// survives position shifts. Records in no group are the singletons.
//
// An update runs Begin, Group once per touched component, Clusters, and
// Commit once the caller adopts the result. Until Commit the committed
// layout is unchanged, so an update abandoned midway loses nothing; the
// next Begin discards it.
//
// A Layout is not safe for concurrent use.
type Layout struct {
	// order lists the committed groups in cluster order; next links each
	// grouped record handle to the next member of its group.
	order []group
	next  []int32
	// slotGroups and slotRecs count each slot's committed groups and the
	// records in them; groups and grouped are the totals.
	slotGroups, slotRecs []int32
	groups, grouped      int

	// The update in progress. dead marks the dissolved slots. fresh lists
	// the new groups as Group found them, their members in mem from off.
	// Clusters sorts them into ins (with insOff) and sets at[f], the
	// number of surviving committed groups ahead of ins[f].
	dissolved   []int32
	dead        []bool
	fresh, ins  []group
	off, insOff []int32
	mem         []int32
	perm, at    []int32
	ready       bool

	// Grouping scratch: union-find and per-root counters over one
	// component, and per-position marks over the record set.
	uf       graph.UnionFind
	cnt, cur []int32
	marks    []bool
}

// group is one multi-member cluster: its smallest member's handle, its
// size and the slot of the component holding it.
type group struct {
	head, size, slot int32
}

// Begin starts an update in which the components at the dissolved slots
// are gone or regrouped: their groups drop out of the layout. It discards
// any update that was not committed.
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
	l.fresh, l.off, l.mem = l.fresh[:0], l.off[:0], l.mem[:0]
	l.ready = false
}

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
			l.cur[r] = int32(len(l.mem))
			l.fresh = append(l.fresh, group{head: handles[records[i]], size: c, slot: slot})
			l.off = append(l.off, int32(len(l.mem)))
			l.mem = index.Grow(l.mem, len(l.mem)+int(c))
			l.cnt[r] = 0
		}
		l.mem[l.cur[r]] = handles[records[i]]
		l.cur[r]++
	}
	clear(l.cnt)
}

// Clusters returns the cluster list of the updated layout over n records,
// pos mapping record handle to position. The slices are fresh and belong
// to the caller: the groups in order, then every other record as a
// singleton in ascending position.
func (l *Layout) Clusters(pos []int32, n int) [][]int {
	// Sort the new groups, then place them among the surviving ones.
	less := func(x, y group) int {
		if x.size != y.size {
			return int(y.size) - int(x.size)
		}
		return int(pos[x.head]) - int(pos[y.head])
	}
	l.perm = l.perm[:0]
	for f := range l.fresh {
		l.perm = append(l.perm, int32(f))
	}
	slices.SortFunc(l.perm, func(x, y int32) int { return less(l.fresh[x], l.fresh[y]) })
	l.ins, l.insOff = l.ins[:0], l.insOff[:0]
	for _, f := range l.perm {
		l.ins = append(l.ins, l.fresh[f])
		l.insOff = append(l.insOff, l.off[f])
	}
	l.at = index.Grow(l.at[:0], len(l.ins))
	f, live := 0, int32(0)
	for _, g := range l.order {
		if f == len(l.ins) {
			break
		}
		if l.dead[g.slot] {
			continue
		}
		for ; f < len(l.ins) && less(l.ins[f], g) < 0; f++ {
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
	l.marks = index.Grow(l.marks, n)
	w, c := 0, 0
	// fresh writes ins[f]; committed groups follow their links.
	fresh := func(f int) {
		for _, h := range l.mem[l.insOff[f]:][:l.ins[f].size] {
			p := pos[h]
			members[w] = int(p)
			l.marks[p] = true
			w++
		}
		out[c] = members[w-int(l.ins[f].size) : w : w]
		c++
	}
	f, live = 0, 0
	for _, g := range l.order {
		if l.dead[g.slot] {
			continue
		}
		for ; f < len(l.ins) && l.at[f] == live; f++ {
			fresh(f)
		}
		h := g.head
		for k := range g.size {
			if k > 0 {
				h = l.next[h]
			}
			p := pos[h]
			members[w] = int(p)
			l.marks[p] = true
			w++
		}
		out[c] = members[w-int(g.size) : w : w]
		c++
		live++
	}
	for ; f < len(l.ins); f++ {
		fresh(f)
	}
	for p := range n {
		if l.marks[p] {
			l.marks[p] = false
			continue
		}
		members[w] = p
		out[c] = members[w : w+1 : w+1]
		w++
		c++
	}
	l.ready = true
	return out
}

// Commit adopts the update Clusters laid out: the dissolved slots' groups
// leave the order, the new groups enter it and their members are linked.
// The order is spliced in place. Without a Clusters since Begin it does
// nothing.
func (l *Layout) Commit() {
	if !l.ready {
		return
	}
	l.order = index.Splice(l.order, func(g group) bool { return l.dead[g.slot] }, l.ins, l.at)
	for _, s := range l.dissolved {
		l.groups -= int(l.slotGroups[s])
		l.grouped -= int(l.slotRecs[s])
		l.slotGroups[s], l.slotRecs[s] = 0, 0
		l.dead[s] = false
	}
	l.dissolved = l.dissolved[:0]
	for f, g := range l.ins {
		mem := l.mem[l.insOff[f]:][:g.size]
		for k := 1; k < len(mem); k++ {
			if h := int(mem[k-1]); h >= len(l.next) {
				l.next = index.Grow(l.next, h+1)
			}
			l.next[mem[k-1]] = mem[k]
		}
		if int(g.slot) >= len(l.slotGroups) {
			l.slotGroups = index.Grow(l.slotGroups, int(g.slot)+1)
			l.slotRecs = index.Grow(l.slotRecs, int(g.slot)+1)
		}
		l.slotGroups[g.slot]++
		l.slotRecs[g.slot] += g.size
		l.groups++
		l.grouped += int(g.size)
	}
	l.fresh, l.off, l.mem, l.ins, l.insOff = l.fresh[:0], l.off[:0], l.mem[:0], l.ins[:0], l.insOff[:0]
	l.ready = false
	// A cold build or a rebuild regroups every component; holding its
	// scratch would keep a copy of the layout alive for updates that
	// regroup a few records.
	if cap(l.mem) > keepScratch {
		l.fresh, l.ins, l.off, l.insOff, l.mem, l.perm, l.at = nil, nil, nil, nil, nil, nil, nil
	}
}

// keepScratch is the most grouped records whose update scratch Commit
// keeps for the next update.
const keepScratch = 1 << 12
