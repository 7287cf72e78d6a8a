package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Abstract lock-state interpretation over the CFG. The lattice element is
// the *may-hold* set: the locks that might be held at a program point, as
// a map from lock identity to the position of the acquisition that put it
// there. Merges union (may-analysis), so a lock released on only one
// branch is still reported held after the join — the sound direction for
// lockhold, whose findings must not miss the path that
// keeps the lock.

// lockOp is one classified sync.Mutex/RWMutex call.
type lockOp struct {
	id      string // stable lock identity, e.g. "repro/internal/wal.Log.mu"
	acquire bool   // Lock/RLock/TryLock vs Unlock/RUnlock
	pos     token.Pos
}

// lockMethods classifies the method names of sync.Mutex and sync.RWMutex.
var lockMethods = map[string]bool{
	"Lock": true, "TryLock": true, "RLock": true, "TryRLock": true,
	"Unlock": false, "RUnlock": false,
}

// lockCall classifies call as a mutex operation and derives the lock's
// identity, or reports ok=false.
func lockCall(p *Package, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	acquire, known := lockMethods[sel.Sel.Name]
	if !known {
		return lockOp{}, false
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return lockOp{}, false
	}
	recv := s.Obj().(*types.Func).Type().(*types.Signature).Recv()
	if recv == nil || !isSyncMutexType(recv.Type()) {
		return lockOp{}, false
	}
	var id string
	if isSyncMutexType(typeOf(p, sel.X)) {
		id = lockIDOf(p, sel.X)
	} else if owner := namedTypeName(typeOf(p, sel.X)); owner != "" {
		// Lock method promoted through an embedded mutex: identify the
		// lock by the embedding type.
		id = owner + ".<embedded>"
	}
	if id == "" {
		return lockOp{}, false
	}
	return lockOp{id: id, acquire: acquire, pos: call.Pos()}, true
}

// isSyncMutexType reports whether t (possibly behind a pointer) is
// sync.Mutex or sync.RWMutex.
func isSyncMutexType(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "sync" &&
		(named.Obj().Name() == "Mutex" || named.Obj().Name() == "RWMutex")
}

// lockIDOf derives a stable identity for the mutex expression e:
//
//	field of a named struct  →  "pkgpath.Type.field"  (s.cols.mu, l.mu)
//	package-level variable   →  "pkgpath.name"
//	local variable           →  "pkgpath.name@file:line"
//	embedded mutex           →  "pkgpath.Type.<embedded>"
//
// Identity is per declaration site, not per instance: two *Log values
// share "wal.Log.mu". That is the right granularity for ordering rules
// (the protocol is about lock *classes*) and is conservative for
// lockhold.
func lockIDOf(p *Package, e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[x]; ok && s.Kind() == types.FieldVal {
			if owner := namedTypeName(s.Recv()); owner != "" {
				return owner + "." + x.Sel.Name
			}
		}
		if id, ok := x.X.(*ast.Ident); ok {
			if pn, ok := p.Info.Uses[id].(*types.PkgName); ok {
				return pn.Imported().Path() + "." + x.Sel.Name
			}
		}
		return ""
	case *ast.Ident:
		obj := p.Info.Uses[x]
		if obj == nil {
			obj = p.Info.Defs[x]
		}
		if obj == nil || obj.Pkg() == nil {
			return ""
		}
		if obj.Parent() == obj.Pkg().Scope() {
			return obj.Pkg().Path() + "." + obj.Name()
		}
		pos := p.Fset.Position(obj.Pos())
		return fmt.Sprintf("%s.%s@%s:%d", obj.Pkg().Path(), obj.Name(), shortFile(pos.Filename), pos.Line)
	case *ast.ParenExpr:
		return lockIDOf(p, x.X)
	case *ast.UnaryExpr:
		return lockIDOf(p, x.X)
	}
	return ""
}

func typeOf(p *Package, e ast.Expr) types.Type {
	if tv, ok := p.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// namedTypeName renders a (possibly pointer-wrapped) named type as
// "pkgpath.Name", or "".
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// heldSet maps a held lock's identity to the acquisition that introduced
// it.
type heldSet map[string]token.Pos

func (h heldSet) clone() heldSet {
	out := make(heldSet, len(h))
	for k, v := range h {
		out[k] = v
	}
	return out
}

func (h heldSet) equal(o heldSet) bool {
	if len(h) != len(o) {
		return false
	}
	for k := range h {
		if _, ok := o[k]; !ok {
			return false
		}
	}
	return true
}

// sortedIDs returns the held lock identities in stable order.
func (h heldSet) sortedIDs() []string {
	ids := make([]string, 0, len(h))
	for id := range h {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// itemLockOps extracts the mutex operations of one CFG item in source
// order. Function literals are descended into (kernels pass them to
// synchronous drivers like parallel.For); go-statement payloads are not —
// the spawned goroutine's locks are its own.
func itemLockOps(p *Package, c *cfg, item ast.Node) []lockOp {
	var ops []lockOp
	if c.goStmts[item] {
		return nil
	}
	ast.Inspect(item, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			// Clause bodies are separate items; do not double-count.
			return false
		case *ast.CallExpr:
			if op, ok := lockCall(p, x); ok {
				ops = append(ops, op)
			}
		}
		return true
	})
	return ops
}

// walkHeld runs the may-hold fixed point over fn's CFG and then replays
// it, invoking visit for every item with the set of locks held *before*
// the item executes. It returns the state at the synthetic exit after the
// deferred calls ran — the defer-unlock idiom therefore reports a clean
// exit, while a path that leaks a lock reports it held.
func walkHeld(p *Package, c *cfg, visit func(item ast.Node, held heldSet)) heldSet {
	in := make([]heldSet, len(c.blocks))
	for i := range in {
		in[i] = heldSet{}
	}
	transfer := func(b *block, state heldSet) heldSet {
		out := state.clone()
		for _, item := range b.items {
			for _, op := range itemLockOps(p, c, item) {
				if op.acquire {
					if _, ok := out[op.id]; !ok {
						out[op.id] = op.pos
					}
				} else {
					delete(out, op.id)
				}
			}
		}
		return out
	}
	// Fixed point: iterate until no block's in-state grows. Block count is
	// small (one function), so a simple round-robin sweep suffices.
	for changed := true; changed; {
		changed = false
		for _, b := range c.blocks {
			out := transfer(b, in[b.id])
			for _, s := range b.succs {
				merged := in[s.id].clone()
				for id, pos := range out {
					if _, ok := merged[id]; !ok {
						merged[id] = pos
					}
				}
				if !merged.equal(in[s.id]) {
					in[s.id] = merged
					changed = true
				}
			}
		}
	}
	if visit != nil {
		for _, b := range c.blocks {
			state := in[b.id].clone()
			for _, item := range b.items {
				visit(item, state)
				for _, op := range itemLockOps(p, c, item) {
					if op.acquire {
						if _, ok := state[op.id]; !ok {
							state[op.id] = op.pos
						}
					} else {
						delete(state, op.id)
					}
				}
			}
		}
	}
	exit := in[c.exit.id].clone()
	for _, call := range c.defers {
		ast.Inspect(call, func(n ast.Node) bool {
			if x, ok := n.(*ast.CallExpr); ok {
				if op, ok := lockCall(p, x); ok {
					if op.acquire {
						if _, ok := exit[op.id]; !ok {
							exit[op.id] = op.pos
						}
					} else {
						delete(exit, op.id)
					}
				}
			}
			return true
		})
		// The deferred call expression itself (defer mu.Unlock()) is the
		// common case and is handled by the Inspect above.
	}
	return exit
}

// shortFile trims a filename to its base for compact lock identities.
func shortFile(name string) string {
	for i := len(name) - 1; i >= 0; i-- {
		if name[i] == '/' {
			return name[i+1:]
		}
	}
	return name
}
