package cluster

import (
	"testing"

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
