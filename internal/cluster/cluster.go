// Package cluster turns a set of matched record pairs into entity clusters.
// The ground-truth record graph of §VI-A is a union of disjoint cliques, so
// the natural output representation of entity resolution is the set of
// connected components of the matched-pair graph (transitive closure).
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
func FromMatches(numRecords int, pairs []index.Pair, matched []bool) [][]int {
	u := graph.NewUnionFind(numRecords)
	for k, p := range pairs {
		if matched[k] {
			u.Union(int(p.I), int(p.J))
		}
	}
	groups := u.Groups(1)
	// Typed stable sort: the reflection-based sort.SliceStable swapper is
	// measurable when 100k records yield ~80k singleton clusters on the
	// warm resolve path. The comparator's order is unchanged.
	slices.SortStableFunc(groups, func(a, b []int) int {
		if len(a) != len(b) {
			return len(b) - len(a)
		}
		return a[0] - b[0]
	})
	return groups
}
