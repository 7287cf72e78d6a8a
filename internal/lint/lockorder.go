package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// LockOrder builds the cross-package lock acquisition graph — an edge
// A → B whenever lock B is acquired (directly or through a module call)
// while A is held — and reports every cycle as deadlock risk. The
// interesting graph spans internal/serve, internal/wal and
// internal/engine: the store lock wrapping a journal append, the job
// store wrapping per-job state. One consistent acquisition order is the
// invariant; a cycle means two goroutines can each hold the lock the
// other needs.
func LockOrder() *Analyzer {
	return &Analyzer{
		Name:      "lockorder",
		Doc:       "cross-package lock acquisition graph must be acyclic (consistent lock ordering, no deadlock risk)",
		Scope:     "internal/{serve,wal,engine,client,index}",
		Applies:   func(pkgPath string) bool { return lockHoldPackages[pkgPath] },
		RunModule: lockOrderModule,
	}
}

// lockEdge is one observed acquisition ordering: to was acquired at pos
// while from was held.
type lockEdge struct {
	from, to string
	pkg      *Package
	pos      token.Pos
}

// lockEdgeKey identifies an ordering pair for dedup.
type lockEdgeKey struct{ from, to string }

func lockOrderModule(prog *program) []Finding {
	// Collect edges, deduping (from,to) pairs and keeping the first
	// (deterministic: program-order) witness.
	edges := make(map[lockEdgeKey]lockEdge)
	addEdge := func(p *Package, held heldSet, to string, pos token.Pos) {
		for from := range held {
			if from == to {
				continue
			}
			k := lockEdgeKey{from, to}
			if _, ok := edges[k]; !ok {
				edges[k] = lockEdge{from: from, to: to, pkg: p, pos: pos}
			}
		}
	}
	for _, fi := range prog.infos {
		p := fi.pkg
		walkHeld(p, fi.c, func(item ast.Node, held heldSet) {
			if len(held) == 0 {
				return
			}
			for _, lop := range itemLockOps(p, fi.c, item) {
				if lop.acquire {
					addEdge(p, held, lop.id, lop.pos)
				}
			}
			for _, op := range scanItem(p, fi.c, item) {
				if op.callee == nil {
					continue
				}
				g, ok := prog.funcs[op.callee]
				if !ok {
					continue
				}
				for id := range g.acquires {
					if _, already := held[id]; !already {
						addEdge(p, held, id, op.pos)
					}
				}
			}
		})
	}
	// Adjacency + reachability over the (small) lock graph.
	adj := make(map[string][]string)
	for k := range edges {
		adj[k.from] = append(adj[k.from], k.to)
	}
	for _, tos := range adj {
		sort.Strings(tos)
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if n == to {
				return true
			}
			if seen[n] {
				continue
			}
			seen[n] = true
			stack = append(stack, adj[n]...)
		}
		return false
	}
	// Every strongly connected set is a deadlock-risk cycle; report once
	// per component, anchored at the lexicographically smallest edge so
	// the finding position is stable across runs.
	var keys []lockEdgeKey
	for k := range edges {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].from != keys[j].from {
			return keys[i].from < keys[j].from
		}
		return keys[i].to < keys[j].to
	})
	reported := make(map[string]bool) // canonical component key
	var out []Finding
	for _, k := range keys {
		if !reaches(k.to, k.from) {
			continue // edge not on a cycle
		}
		// Component = every lock mutually reachable with k.from.
		var comp []string
		for n := range adj {
			if n == k.from || (reaches(k.from, n) && reaches(n, k.from)) {
				comp = append(comp, n)
			}
		}
		sort.Strings(comp)
		ck := strings.Join(comp, "|")
		if reported[ck] {
			continue
		}
		reported[ck] = true
		var detail []string
		for _, e := range cycleEdges(comp, edges) {
			p := e.pkg.Fset.Position(e.pos)
			detail = append(detail, fmt.Sprintf("%s -> %s at %s:%d", e.from, e.to, shortFile(p.Filename), p.Line))
		}
		e := edges[k]
		out = append(out, Finding{Analyzer: "lockorder", Pos: e.pkg.Fset.Position(e.pos),
			Message: fmt.Sprintf("lock acquisition order cycle between {%s}: %s; pick one acquisition order",
				strings.Join(comp, ", "), strings.Join(detail, "; "))})
	}
	return out
}

// cycleEdges lists the edges internal to one component in stable order.
func cycleEdges(comp []string, edges map[lockEdgeKey]lockEdge) []lockEdge {
	var out []lockEdge
	for _, from := range comp {
		for _, to := range comp {
			if e, ok := edges[lockEdgeKey{from, to}]; ok {
				out = append(out, e)
			}
		}
	}
	return out
}
