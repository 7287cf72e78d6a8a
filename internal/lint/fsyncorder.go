package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// fsyncOrderPackages is the scope of the WAL durability protocol: the
// journal itself and the store that drives it.
var fsyncOrderPackages = map[string]bool{
	"repro/internal/wal":   true,
	"repro/internal/serve": true,
}

// FsyncOrder checks the three ordering rules of the WAL durability
// protocol:
//
//	R1  a staged file is fsynced before it is renamed into place, on
//	    every path (must-analysis; a rename of unsynced bytes can
//	    surface an empty file after a crash),
//	R2  a directory-entry mutation — create, rename, error-checked
//	    remove — has a directory fsync reachable after it (the entry
//	    itself is not durable until the directory is synced; a
//	    best-effort `_ = fs.Remove(tmp)` cleanup is exempt),
//	R3  the journal append precedes the in-memory apply (an apply that
//	    can reach the append mutated state before the WAL recorded it —
//	    a crash in between loses the write that readers already saw).
//
// Sync/SyncDir performed inside a called module function count at the
// call site, so the write-snapshot helper satisfies its caller.
func FsyncOrder() *Analyzer {
	return &Analyzer{
		Name:      "fsyncorder",
		Doc:       "WAL durability protocol: fsync before rename, directory fsync after entry mutations, journal append before in-memory apply",
		Packages:  fsyncOrderPackages,
		RunModule: fsyncOrderModule,
	}
}

// fsyncEvent is one protocol-relevant operation inside a CFG item, in
// source order.
type fsyncEvent struct {
	kind      string // sync, syncdir, create, rename, remove, append, apply, call
	name      string // method name as written, for messages
	pos       token.Pos
	callee    types.Object // for kind "call"
	discarded bool         // kind "remove": error result is discarded
}

// fsyncFacts is the interprocedural (may) summary consumed at call
// sites.
type fsyncFacts struct{ syncs, syncDirs bool }

func fsyncOrderModule(prog *program) []Finding {
	// Fixed point for the callee facts: does a function, on some path,
	// perform a file fsync / a directory fsync (directly or transitively)?
	facts := make(map[types.Object]*fsyncFacts)
	for obj := range prog.funcs {
		facts[obj] = &fsyncFacts{}
	}
	factsOf := func(obj types.Object) *fsyncFacts {
		if obj == nil {
			return nil
		}
		return facts[obj]
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.infos {
			if fi.obj == nil {
				continue
			}
			f := facts[fi.obj]
			for _, b := range fi.c.blocks {
				for _, item := range b.items {
					for _, ev := range scanFsync(fi.pkg, fi.c, item) {
						switch ev.kind {
						case "sync":
							if !f.syncs {
								f.syncs, changed = true, true
							}
						case "syncdir":
							if !f.syncDirs {
								f.syncDirs, changed = true, true
							}
						case "call":
							if g := factsOf(ev.callee); g != nil {
								if g.syncs && !f.syncs {
									f.syncs, changed = true, true
								}
								if g.syncDirs && !f.syncDirs {
									f.syncDirs, changed = true, true
								}
							}
						}
					}
				}
			}
		}
	}

	var out []Finding
	for _, fi := range prog.infos {
		out = append(out, fsyncCheckFunc(fi, factsOf)...)
	}
	return out
}

// fsyncCheckFunc runs all three rules over one function.
func fsyncCheckFunc(fi *funcInfo, factsOf func(types.Object) *fsyncFacts) []Finding {
	p, c := fi.pkg, fi.c
	// perBlock[b.id][i] holds the events of block b's i-th item.
	perBlock := make([][][]fsyncEvent, len(c.blocks))
	for _, b := range c.blocks {
		perBlock[b.id] = make([][]fsyncEvent, len(b.items))
		for i, item := range b.items {
			perBlock[b.id][i] = scanFsync(p, c, item)
		}
	}

	isSyncDir := func(ev fsyncEvent) bool {
		if ev.kind == "syncdir" {
			return true
		}
		if ev.kind == "call" {
			if g := factsOf(ev.callee); g != nil {
				return g.syncDirs
			}
		}
		return false
	}
	isSync := func(ev fsyncEvent) bool {
		if ev.kind == "sync" {
			return true
		}
		if ev.kind == "call" {
			if g := factsOf(ev.callee); g != nil {
				return g.syncs
			}
		}
		return false
	}

	// Reachability helper: does an event satisfying pred occur after
	// (block b, item i, event e), searching the rest of the item, the rest
	// of the block, then every transitively reachable successor block?
	blockHas := func(bid int, fromItem, fromEv int, pred func(fsyncEvent) bool) bool {
		for i := fromItem; i < len(perBlock[bid]); i++ {
			start := 0
			if i == fromItem {
				start = fromEv
			}
			for _, ev := range perBlock[bid][i][start:] {
				if pred(ev) {
					return true
				}
			}
		}
		return false
	}
	reachableHas := func(b *block, fromItem, fromEv int, pred func(fsyncEvent) bool) bool {
		if blockHas(b.id, fromItem, fromEv, pred) {
			return true
		}
		seen := make([]bool, len(c.blocks))
		stack := append([]*block(nil), b.succs...)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n.id] {
				continue
			}
			seen[n.id] = true
			if blockHas(n.id, 0, 0, pred) {
				return true
			}
			stack = append(stack, n.succs...)
		}
		return false
	}

	var out []Finding

	// R1: forward must-analysis of the "staged file is synced" bit.
	// Entry and create reset it; a file fsync (direct or via a callee)
	// sets it; merges AND, so a path that skips the fsync wins.
	preds := make([][]*block, len(c.blocks))
	for _, b := range c.blocks {
		for _, s := range b.succs {
			preds[s.id] = append(preds[s.id], b)
		}
	}
	transfer := func(bid int, bit bool) bool {
		for i := range perBlock[bid] {
			for _, ev := range perBlock[bid][i] {
				switch {
				case ev.kind == "create":
					bit = false
				case isSync(ev):
					bit = true
				}
			}
		}
		return bit
	}
	in := make([]bool, len(c.blocks))
	for i := range in {
		in[i] = true // TOP for the must-analysis
	}
	in[c.entry.id] = false
	for changed := true; changed; {
		changed = false
		for _, b := range c.blocks {
			if b == c.entry {
				continue
			}
			v := true
			if len(preds[b.id]) == 0 {
				v = in[b.id] // unreachable: keep TOP
			}
			for _, pb := range preds[b.id] {
				v = v && transfer(pb.id, in[pb.id])
			}
			if v != in[b.id] {
				in[b.id] = v
				changed = true
			}
		}
	}
	for _, b := range c.blocks {
		bit := in[b.id]
		for i := range perBlock[b.id] {
			for _, ev := range perBlock[b.id][i] {
				switch {
				case ev.kind == "create":
					bit = false
				case isSync(ev):
					bit = true
				case ev.kind == "rename" && !bit:
					out = append(out, Finding{Analyzer: "fsyncorder", Pos: p.Fset.Position(ev.pos),
						Message: "rename without a file fsync of the staged file on some path; fsync before renaming into place"})
				}
			}
		}
	}

	// R2: directory fsync reachable after every directory-entry mutation.
	for _, b := range c.blocks {
		for i := range perBlock[b.id] {
			for e, ev := range perBlock[b.id][i] {
				switch ev.kind {
				case "create", "rename", "remove":
					if ev.kind == "remove" && ev.discarded {
						continue // best-effort cleanup, durability not claimed
					}
					if !reachableHas(b, i, e+1, isSyncDir) {
						out = append(out, Finding{Analyzer: "fsyncorder", Pos: p.Fset.Position(ev.pos),
							Message: fmt.Sprintf("%s mutates a directory entry but no directory fsync is reachable; call SyncDir before returning", ev.name)})
					}
				}
			}
		}
	}

	// R3: the journal append must precede the in-memory apply.
	isAppend := func(ev fsyncEvent) bool { return ev.kind == "append" }
	for _, b := range c.blocks {
		for i := range perBlock[b.id] {
			for e, ev := range perBlock[b.id][i] {
				if ev.kind != "apply" {
					continue
				}
				if reachableHas(b, i, e+1, isAppend) {
					out = append(out, Finding{Analyzer: "fsyncorder", Pos: p.Fset.Position(ev.pos),
						Message: "in-memory apply happens before the journal append it can reach; append to the WAL first, then apply"})
				}
			}
		}
	}
	return out
}

// scanFsync extracts the protocol-relevant events of one CFG item in
// source order. Go-statement payloads are skipped (the spawned
// goroutine's protocol is checked where its function is declared).
func scanFsync(p *Package, c *cfg, item ast.Node) []fsyncEvent {
	if c.goStmts[item] {
		return nil
	}
	var evs []fsyncEvent
	ast.Inspect(item, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			return false // clause bodies are separate items
		case *ast.CallExpr:
			sel, ok := x.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			name := sel.Sel.Name
			switch name {
			case "Sync":
				if len(x.Args) == 0 {
					evs = append(evs, fsyncEvent{kind: "sync", name: name, pos: x.Pos()})
					return true
				}
			case "SyncDir":
				evs = append(evs, fsyncEvent{kind: "syncdir", name: name, pos: x.Pos()})
				return true
			case "Create", "OpenFile":
				evs = append(evs, fsyncEvent{kind: "create", name: name, pos: x.Pos()})
				return true
			case "Rename":
				evs = append(evs, fsyncEvent{kind: "rename", name: name, pos: x.Pos()})
				return true
			case "Remove", "RemoveAll":
				evs = append(evs, fsyncEvent{kind: "remove", name: name, pos: x.Pos(),
					discarded: errDiscarded(item, x)})
				return true
			case "Append", "AppendDurable":
				if owner := namedTypeName(typeOf(p, sel.X)); strings.HasSuffix(owner, ".Log") {
					evs = append(evs, fsyncEvent{kind: "append", name: name, pos: x.Pos()})
					return true
				}
			case "apply", "applyLocked":
				evs = append(evs, fsyncEvent{kind: "apply", name: name, pos: x.Pos()})
				return true
			}
			if obj := calleeObject(p, x); obj != nil {
				evs = append(evs, fsyncEvent{kind: "call", name: name, pos: x.Pos(), callee: obj})
			}
		}
		return true
	})
	return evs
}

// errDiscarded reports whether call's error result is thrown away inside
// item: the call stands alone as an expression statement, or every
// assignment target is the blank identifier.
func errDiscarded(item ast.Node, call *ast.CallExpr) bool {
	if item == ast.Node(call) {
		return true // ExprStmt: bare `fs.Remove(tmp)`
	}
	if as, ok := item.(*ast.AssignStmt); ok {
		usesCall := false
		for _, r := range as.Rhs {
			if r == ast.Expr(call) {
				usesCall = true
			}
		}
		if !usesCall {
			return false
		}
		for _, l := range as.Lhs {
			id, ok := l.(*ast.Ident)
			if !ok || id.Name != "_" {
				return false
			}
		}
		return true
	}
	return false
}
