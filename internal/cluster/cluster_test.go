package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/index"
)

func TestFromMatchesTransitiveClosure(t *testing.T) {
	pairs := []index.Pair{{I: 0, J: 1}, {I: 1, J: 2}, {I: 3, J: 4}, {I: 4, J: 5}}
	matched := []bool{true, true, true, false}
	clusters := FromMatches(6, pairs, matched)
	// {0,1,2}, {3,4}, {5}
	if len(clusters) != 3 {
		t.Fatalf("clusters = %v, want 3 groups", clusters)
	}
	if len(clusters[0]) != 3 || clusters[0][0] != 0 {
		t.Errorf("largest cluster = %v, want [0 1 2]", clusters[0])
	}
	if len(clusters[1]) != 2 || clusters[1][0] != 3 {
		t.Errorf("second cluster = %v, want [3 4]", clusters[1])
	}
	if len(clusters[2]) != 1 || clusters[2][0] != 5 {
		t.Errorf("singleton = %v, want [5]", clusters[2])
	}
}

func TestFromMatchesNoMatches(t *testing.T) {
	pairs := []index.Pair{{I: 0, J: 1}}
	clusters := FromMatches(3, pairs, []bool{false})
	if len(clusters) != 3 {
		t.Fatalf("want 3 singletons, got %v", clusters)
	}
}

// TestFromMatchesGroups pins the grouping contract: clusters of size ≥ 2
// come first in size order with members ascending, and singletons follow.
func TestFromMatchesGroups(t *testing.T) {
	pairs := []index.Pair{{I: 0, J: 1}, {I: 1, J: 2}, {I: 3, J: 4}}
	clusters := FromMatches(6, pairs, []bool{true, true, true})
	if len(clusters) != 3 {
		t.Fatalf("clusters = %v, want 3 (including singleton 5)", clusters)
	}
	if !reflect.DeepEqual(clusters[0], []int{0, 1, 2}) {
		t.Errorf("first cluster = %v, want [0 1 2]", clusters[0])
	}
	if !reflect.DeepEqual(clusters[1], []int{3, 4}) {
		t.Errorf("second cluster = %v, want [3 4]", clusters[1])
	}
	if !reflect.DeepEqual(clusters[2], []int{5}) {
		t.Errorf("singleton = %v, want [5]", clusters[2])
	}
}

// fromMatchesSorted is the sort-based definition FromMatches replaced:
// group by union-find root, sort members ascending, then stable-sort the
// clusters by size descending and smallest member ascending.
func fromMatchesSorted(numRecords int, pairs []index.Pair, matched []bool) [][]int {
	u := graph.NewUnionFind(numRecords)
	for k, p := range pairs {
		if matched[k] {
			u.Union(int(p.I), int(p.J))
		}
	}
	byRoot := make(map[int][]int)
	for i := 0; i < numRecords; i++ {
		r := u.Find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	var out [][]int
	for _, g := range byRoot {
		out = append(out, g)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if len(out[a]) != len(out[b]) {
			return len(out[a]) > len(out[b])
		}
		return out[a][0] < out[b][0]
	})
	return out
}

// TestFromMatchesMatchesSortedDefinition holds the linear layout to the
// sort-based definition over random match sets.
func TestFromMatchesMatchesSortedDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(60)
		var pairs []index.Pair
		var matched []bool
		for k := rng.Intn(2 * n); k > 0; k-- {
			i, j := int32(rng.Intn(n)), int32(rng.Intn(n))
			if i == j {
				continue
			}
			pairs = append(pairs, index.Pair{I: min(i, j), J: max(i, j)})
			matched = append(matched, rng.Intn(3) > 0)
		}
		got := FromMatches(n, pairs, matched)
		want := fromMatchesSorted(n, pairs, matched)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d): got %v, want %v", trial, n, got, want)
		}
	}
}
