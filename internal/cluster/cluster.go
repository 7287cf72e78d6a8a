// Package cluster turns a set of matched record pairs into entity clusters.
// The ground-truth record graph of §VI-A is a union of disjoint cliques, so
// the natural output representation of entity resolution is the set of
// connected components of the matched-pair graph (transitive closure).
package cluster

import (
	"repro/internal/graph"
	"repro/internal/index"
)

// FromMatches computes entity clusters from the flagged candidate pairs.
// Every record appears in exactly one cluster; unmatched records form
// singleton clusters. Clusters are ordered by size descending, ties broken
// by smallest member, members sorted ascending.
//
// The layout is linear in records plus pairs: one ascending scan numbers
// the clusters in smallest-member order, a stable counting sort by size
// descending places them, and a second ascending scan fills every
// cluster's members into one backing array.
func FromMatches(numRecords int, pairs []index.Pair, matched []bool) [][]int {
	u := graph.NewUnionFind(numRecords)
	for k, p := range pairs {
		if matched[k] {
			u.Union(int(p.I), int(p.J))
		}
	}
	n := numRecords
	if n == 0 {
		return nil
	}
	// The first member seen of each set is its smallest.
	groupOf := make([]int32, n) // record -> group, then root -> group
	for i := range groupOf {
		groupOf[i] = -1
	}
	member := make([]int32, n) // record -> group
	var size []int32
	maxSize := int32(0)
	for i := 0; i < n; i++ {
		r := u.Find(i)
		g := groupOf[r]
		if g < 0 {
			g = int32(len(size))
			groupOf[r] = g
			size = append(size, 0)
		}
		member[i] = g
		size[g]++
		maxSize = max(maxSize, size[g])
	}
	// Stable counting sort by size descending: slot[g] is group g's rank.
	bySize := make([]int32, maxSize+2)
	for _, s := range size {
		bySize[maxSize-s+1]++
	}
	for s := int32(1); s < int32(len(bySize)); s++ {
		bySize[s] += bySize[s-1]
	}
	slot := make([]int32, len(size))
	for g, s := range size {
		slot[g] = bySize[maxSize-s]
		bySize[maxSize-s]++
	}
	off := make([]int32, len(size)+1)
	for g, s := range size {
		off[slot[g]+1] = s
	}
	for k := range size {
		off[k+1] += off[k]
	}
	members := make([]int, n)
	fill := make([]int32, len(size))
	copy(fill, off[:len(size)])
	for i := 0; i < n; i++ {
		k := slot[member[i]]
		members[fill[k]] = i
		fill[k]++
	}
	out := make([][]int, len(size))
	for k := range out {
		out[k] = members[off[k]:off[k+1]:off[k+1]]
	}
	return out
}
