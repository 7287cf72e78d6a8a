package cluster

import (
	"maps"
	"math/rand"
	"reflect"
	"slices"
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

// layoutModel is a record set partitioned into components, as the
// resident resolver sees it: records have stable handles (a deleted
// handle is reused) and sort keys that fix their positions, and every
// component occupies a slot and carries its local pairs and match flags.
type layoutModel struct {
	rng   *rand.Rand
	key   map[int32]int // live handle -> sort key
	free  []int32       // deleted handles, reused first
	next  int32         // handle high-water mark
	comps map[int32]*modelComp
	slots int32
	// compOf maps a live handle to its component's slot.
	compOf map[int32]int32
}

// modelComp is one component: member handles, and pairs of indexes into
// them with a match flag each.
type modelComp struct {
	members []int32
	pairs   [][2]int
	matched []bool
}

// update is one change to the model: the slots it dissolves, the
// components that replace them keyed by slot, and the handles it deletes
// and inserts.
type update struct {
	dissolved []int32
	fresh     map[int32]*modelComp
	deleted   []int32
	inserted  []int32
}

// positions returns the live handles in key order and the handle ->
// position map.
func (m *layoutModel) positions() (handles []int32, pos []int32) {
	for h := range m.key {
		handles = append(handles, h)
	}
	sort.Slice(handles, func(a, b int) bool { return m.key[handles[a]] < m.key[handles[b]] })
	pos = make([]int32, m.next)
	for p, h := range handles {
		pos[h] = int32(p)
	}
	return handles, pos
}

// randomUpdate draws a change: dissolve a few components, delete records
// from them or from no component, insert records at random keys, and
// regroup the dissolved components' survivors, the new records and a few
// loose records into fresh components with random pairs and matches.
// Nothing in the model changes until apply.
func (m *layoutModel) randomUpdate() *update {
	rng := m.rng
	u := &update{fresh: make(map[int32]*modelComp)}
	slots := make([]int32, 0, len(m.comps))
	for s := range m.comps {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a] < slots[b] })
	rng.Shuffle(len(slots), func(a, b int) { slots[a], slots[b] = slots[b], slots[a] })
	u.dissolved = slots[:min(len(slots), rng.Intn(4))]
	sort.Slice(u.dissolved, func(a, b int) bool { return u.dissolved[a] < u.dissolved[b] })

	// Records free to move: the dissolved components' members and every
	// record in no component.
	var pool []int32
	for _, s := range u.dissolved {
		pool = append(pool, m.comps[s].members...)
	}
	var loose []int32
	for h := range m.key {
		if _, ok := m.compOf[h]; !ok {
			loose = append(loose, h)
		}
	}
	sort.Slice(loose, func(a, b int) bool { return loose[a] < loose[b] })
	pool = append(pool, loose[:min(len(loose), rng.Intn(4))]...)
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	// Delete some of them.
	for len(pool) > 0 && rng.Intn(3) == 0 {
		u.deleted = append(u.deleted, pool[len(pool)-1])
		pool = pool[:len(pool)-1]
	}
	// Insert new records: reused handles first.
	free, next := append([]int32(nil), m.free...), m.next
	for _, h := range u.deleted {
		free = append(free, h)
	}
	for k := rng.Intn(4); k > 0; k-- {
		var h int32
		if len(free) > 0 && rng.Intn(2) == 0 {
			h, free = free[0], free[1:]
		} else {
			h = next
			next++
		}
		u.inserted = append(u.inserted, h)
		pool = append(pool, h)
	}
	// Regroup the pool into components; leftovers stay loose.
	avail := append([]int32(nil), u.dissolved...)
	for s := int32(0); s < m.slots; s++ {
		if _, used := m.comps[s]; !used {
			avail = append(avail, s)
		}
	}
	fresh := m.slots
	for len(pool) >= 2 && rng.Intn(5) > 0 {
		size := 2 + rng.Intn(min(len(pool)-1, 6))
		c := &modelComp{members: append([]int32(nil), pool[:size]...)}
		pool = pool[size:]
		for k := size - 1 + rng.Intn(2*size); k > 0; k-- {
			i, j := rng.Intn(size), rng.Intn(size)
			if i == j {
				continue
			}
			c.pairs = append(c.pairs, [2]int{min(i, j), max(i, j)})
			c.matched = append(c.matched, rng.Intn(3) > 0)
		}
		var slot int32
		if len(avail) > 0 && rng.Intn(4) > 0 {
			slot, avail = avail[0], avail[1:]
		} else {
			slot = fresh
			fresh++
		}
		u.fresh[slot] = c
	}
	return u
}

// stage makes u's deletes and inserts visible to positions, as the
// index's positions already are when the resolver lays out an update:
// deleted handles lose their keys and inserted ones draw distinct keys,
// spread so new records land before, between and after existing ones.
func (m *layoutModel) stage(u *update) {
	for _, h := range u.deleted {
		delete(m.key, h)
	}
	used := make(map[int]bool, len(m.key))
	for _, k := range m.key {
		used[k] = true
	}
	for _, h := range u.inserted {
		k := m.rng.Intn(1 << 20)
		for used[k] {
			k = m.rng.Intn(1 << 20)
		}
		used[k] = true
		m.key[h] = k
		m.next = max(m.next, h+1)
	}
}

// apply adopts a staged update's components and free handles.
func (m *layoutModel) apply(u *update) {
	for _, s := range u.dissolved {
		for _, h := range m.comps[s].members {
			delete(m.compOf, h)
		}
		delete(m.comps, s)
	}
	m.free = append(m.free, u.deleted...)
	for _, h := range u.inserted {
		if k := slices.Index(m.free, h); k >= 0 {
			m.free = slices.Delete(m.free, k, k+1)
		}
	}
	for s, c := range u.fresh {
		m.comps[s] = c
		m.slots = max(m.slots, s+1)
		for _, h := range c.members {
			m.compOf[h] = s
		}
	}
}

// feed runs one layout update for u over the model's current positions
// (which already reflect u's deletes and inserts) and returns its
// clusters.
func feed(l *Layout, m *layoutModel, u *update) [][]int {
	handles, pos := m.positions()
	l.Begin(u.dissolved)
	slots := make([]int32, 0, len(u.fresh))
	for s := range u.fresh {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(a, b int) bool { return slots[a] < slots[b] })
	for _, s := range slots {
		c := u.fresh[s]
		// Local nodes in ascending position, as the resolver numbers them.
		local := append([]int32(nil), c.members...)
		sort.Slice(local, func(a, b int) bool { return pos[local[a]] < pos[local[b]] })
		idx := make(map[int32]int32, len(local))
		records := make([]int32, len(local))
		for i, h := range local {
			idx[h] = int32(i)
			records[i] = pos[h]
		}
		pairs := make([]index.Pair, len(c.pairs))
		for k, p := range c.pairs {
			i, j := idx[c.members[p[0]]], idx[c.members[p[1]]]
			pairs[k] = index.Pair{I: min(i, j), J: max(i, j)}
		}
		l.Group(s, records, handles, pairs, c.matched)
	}
	return l.Clusters(pos, len(handles))
}

// oracle returns the model's global matched pairs over positions.
func (m *layoutModel) oracle() (int, []index.Pair, []bool) {
	handles, pos := m.positions()
	var pairs []index.Pair
	var matched []bool
	for _, c := range m.comps {
		for k, p := range c.pairs {
			i, j := pos[c.members[p[0]]], pos[c.members[p[1]]]
			pairs = append(pairs, index.Pair{I: min(i, j), J: max(i, j)})
			matched = append(matched, c.matched[k])
		}
	}
	return len(handles), pairs, matched
}

// TestLayoutMatchesColdBuild drives a resident Layout through random
// update sequences — components dissolved and re-formed, groups grown and
// split, records deleted and inserted so positions shift, handles reused,
// updates abandoned before Commit — and holds every output to a cold
// FromMatches over the whole record set and to the sort-based definition.
func TestLayoutMatchesColdBuild(t *testing.T) {
	// What the generator exercised, so a drift that stops covering a case
	// fails loudly.
	var deleted, reused, split, large int
	for seed := int64(1); seed <= 40; seed++ {
		m := &layoutModel{
			rng:    rand.New(rand.NewSource(seed)),
			key:    make(map[int32]int),
			comps:  make(map[int32]*modelComp),
			compOf: make(map[int32]int32),
		}
		var l Layout
		for step := 0; step < 60; step++ {
			if m.rng.Intn(5) == 0 {
				// An update computed and then abandoned: the model and
				// the committed layout stay as they were.
				u := m.randomUpdate()
				key, next := maps.Clone(m.key), m.next
				m.stage(u)
				feed(&l, m, u)
				m.key, m.next = key, next
			}
			u := m.randomUpdate()
			deleted += len(u.deleted)
			for _, h := range u.inserted {
				if h < m.next {
					reused++
				}
			}
			m.stage(u)
			got := feed(&l, m, u)
			for _, g := range l.fresh {
				if g.size > 2 {
					large++
				}
			}
			perSlot := make(map[int32]int)
			for _, g := range l.fresh {
				if perSlot[g.slot]++; perSlot[g.slot] == 2 {
					split++
				}
			}
			m.apply(u)
			n, pairs, matched := m.oracle()
			if n == 0 {
				continue
			}
			if want := FromMatches(n, pairs, matched); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: layout %v, cold FromMatches %v", seed, step, got, want)
			}
			if want := fromMatchesSorted(n, pairs, matched); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d: layout %v, sorted definition %v", seed, step, got, want)
			}
			l.Commit()
		}
	}
	if deleted == 0 || reused == 0 || split == 0 || large == 0 {
		t.Fatalf("generator coverage: %d deletes, %d reused handles, %d components holding two groups or more, %d groups above two records",
			deleted, reused, split, large)
	}
}
