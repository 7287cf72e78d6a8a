// Package graph provides the generic graph structures used across the
// reproduction: a union-find for entity clustering and the term
// co-occurrence graph of the TextRank/TW-IDF baseline. The specialised
// bipartite term/record-pair graph lives in package blocking (it is a direct
// byproduct of candidate generation), and the record graph G_r is
// represented by matrix.Pattern.
package graph

// UnionFind is a disjoint-set forest with union by rank and path
// compression.
type UnionFind struct {
	parent []int32
	rank   []int8
	count  int
}

// NewUnionFind creates n singleton sets.
func NewUnionFind(n int) *UnionFind {
	u := &UnionFind{parent: make([]int32, n), rank: make([]int8, n), count: n}
	for i := range u.parent {
		u.parent[i] = int32(i)
	}
	return u
}

// Find returns the canonical representative of x's set.
func (u *UnionFind) Find(x int) int {
	root := int32(x)
	for u.parent[root] != root {
		root = u.parent[root]
	}
	for int32(x) != root {
		next := u.parent[x]
		u.parent[x] = root
		x = int(next)
	}
	return int(root)
}

// Union merges the sets of a and b and reports whether they were distinct.
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = int32(ra)
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.count--
	return true
}

// Count returns the current number of disjoint sets.
func (u *UnionFind) Count() int { return u.count }
