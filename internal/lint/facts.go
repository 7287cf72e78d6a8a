package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Interprocedural call-graph summaries. A program is built once per lint
// run from every package in the run; each function body gets a CFG and a
// summary of the facts the flow-aware analyzers propagate:
//
//	blocking   — the function (transitively) performs a blocking
//	             operation: fsync, durability wait, channel op, network
//	             I/O, sleep. Consumed by lockhold.
//	cancelable — the function (transitively) reaches a cancellation
//	             point: a select, a channel receive, a range over a
//	             channel, or any use of a context.Context. Consumed by
//	             goleak.
//
// Summaries reach a fixed point over the static call graph (module-
// internal calls only; unknown callees contribute nothing, which is the
// conservative direction for each consumer). A //lint:ignore lockhold on
// a blocking primitive excludes that operation from its function's
// summary as well as from direct findings: the suppression blesses the
// operation for every caller, so one reviewed reason never cascades into
// a chain of suppressions up the call stack.

// blockFact records why a function is considered blocking.
type blockFact struct {
	desc    string         // "file fsync", "channel send", ...
	rootPos token.Position // position of the underlying primitive
	via     string         // display name of the callee chain head, "" when direct
}

// funcInfo is one function declaration with its CFG and summary facts.
type funcInfo struct {
	pkg  *Package
	decl *ast.FuncDecl
	obj  types.Object
	c    *cfg

	blocking   *blockFact
	cancelable bool

	// syncCalls are the statically resolved module-internal callees
	// reached by ordinary (non-go, non-deferred) calls.
	syncCalls []types.Object
}

// program is the whole-run view the module-level analyzers consume.
type program struct {
	pkgs   []*Package
	fileOf map[string]*Package
	funcs  map[types.Object]*funcInfo
	infos  []*funcInfo // deterministic order: package order, then file, then decl
}

// itemOp is one interesting operation found in a CFG item.
type itemOp struct {
	pos       token.Pos
	blockDesc string       // non-empty for a blocking primitive
	callee    types.Object // non-nil for a resolved static call
	calleeStr string       // display form of the callee
}

// newProgram builds CFGs and fixed-point summaries for every function of
// the run.
func newProgram(pkgs []*Package) *program {
	prog := &program{
		pkgs:   pkgs,
		fileOf: make(map[string]*Package),
		funcs:  make(map[types.Object]*funcInfo),
	}
	for _, p := range pkgs {
		for _, f := range p.Files {
			prog.fileOf[p.Fset.Position(f.Pos()).Filename] = p
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj := p.Info.Defs[fn.Name]
				fi := &funcInfo{
					pkg:  p,
					decl: fn,
					obj:  obj,
					c:    buildCFG(fn.Body),
				}
				if obj != nil {
					prog.funcs[obj] = fi
				}
				prog.infos = append(prog.infos, fi)
			}
		}
	}
	for _, fi := range prog.infos {
		prog.directFacts(fi)
	}
	prog.fixpoint()
	return prog
}

// directFacts computes the intra-procedural part of a summary.
func (prog *program) directFacts(fi *funcInfo) {
	p := fi.pkg
	for _, b := range fi.c.blocks {
		for _, item := range b.items {
			for _, op := range scanItem(p, fi.c, item) {
				if op.blockDesc != "" {
					// A reasoned //lint:ignore lockhold on the primitive
					// removes it from the summary (see package comment).
					if p.suppressed("lockhold", p.Fset.Position(op.pos)) {
						continue
					}
					if fi.blocking == nil {
						fi.blocking = &blockFact{desc: op.blockDesc, rootPos: p.Fset.Position(op.pos)}
					}
					continue
				}
				if op.callee != nil {
					fi.syncCalls = append(fi.syncCalls, op.callee)
				}
			}
		}
	}
	fi.cancelable = hasCancellationPoint(p, fi.decl.Body)
}

// fixpoint propagates blocking/cancelable over sync calls until
// stable.
func (prog *program) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.infos {
			for _, callee := range fi.syncCalls {
				g, ok := prog.funcs[callee]
				if !ok || g == fi {
					continue
				}
				if g.blocking != nil && fi.blocking == nil {
					fi.blocking = &blockFact{
						desc:    g.blocking.desc,
						rootPos: g.blocking.rootPos,
						via:     funcDisplayName(callee),
					}
					changed = true
				}
				if g.cancelable && !fi.cancelable {
					fi.cancelable = true
					changed = true
				}
			}
		}
	}
}

// scanItem finds the blocking primitives and static calls of one CFG item
// in source order. Select-clause communications are scanned for calls but
// never count as blocking (a chosen clause is ready by definition);
// go-statement payloads are skipped entirely — what the spawned goroutine
// does is goleak's concern, not the current goroutine's.
func scanItem(p *Package, c *cfg, item ast.Node) []itemOp {
	if c.goStmts[item] {
		return nil
	}
	skipChan := c.selectComms[item]
	var ops []itemOp
	switch x := item.(type) {
	case *ast.SelectStmt:
		if !selectHasDefault(x) {
			ops = append(ops, itemOp{pos: x.Pos(), blockDesc: "select with no default case"})
		}
		return ops // clause bodies are separate items
	case *ast.RangeStmt:
		if t := typeOf(p, x.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				ops = append(ops, itemOp{pos: x.Pos(), blockDesc: "range over a channel"})
			}
		}
		return ops // the body lives in its own blocks
	}
	ast.Inspect(item, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			return false // decomposed into separate items
		case *ast.SendStmt:
			if !skipChan {
				ops = append(ops, itemOp{pos: x.Arrow, blockDesc: "channel send"})
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && !skipChan {
				ops = append(ops, itemOp{pos: x.OpPos, blockDesc: "channel receive"})
			}
		case *ast.CallExpr:
			if _, isLock := lockCall(p, x); isLock {
				return true // lock ops are the lattice's concern
			}
			if desc := blockingCallDesc(p, x); desc != "" {
				ops = append(ops, itemOp{pos: x.Pos(), blockDesc: desc})
				return true
			}
			if obj := calleeObject(p, x); obj != nil {
				ops = append(ops, itemOp{pos: x.Pos(), callee: obj, calleeStr: funcDisplayName(obj)})
			}
		}
		return true
	})
	return ops
}

// blockingCallDesc classifies a call as a blocking primitive, or returns
// "". The set is deliberately the durability/concurrency surface of this
// codebase: fsync barriers (Sync/SyncDir), durability waits, WaitGroup
// and Cond waits, sleeps, and network I/O. Buffered disk writes (Write,
// Create, …) are excluded on purpose — the WAL protocol stages page-cache
// writes under the store lock by design; the fsync is the operation that
// parks a goroutine on the disk.
func blockingCallDesc(p *Package, call *ast.CallExpr) string {
	if pkgPath, fn, ok := importedCallee(p, call); ok {
		switch {
		case pkgPath == "time" && fn == "Sleep":
			return "time.Sleep"
		case pkgPath == "net" || strings.HasPrefix(pkgPath, "net/"):
			return "network I/O (" + fn + ")"
		}
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch sel.Sel.Name {
	case "Sync":
		if len(call.Args) == 0 {
			return "file fsync"
		}
	case "SyncDir":
		return "directory fsync"
	case "WaitDurable":
		return "durability wait (WaitDurable)"
	case "AppendDurable":
		return "durability wait (AppendDurable)"
	case "Wait":
		if recv := methodReceiverType(p, call); recv == "sync.WaitGroup" || recv == "sync.Cond" {
			return recv + ".Wait"
		}
	case "Accept", "AcceptTCP":
		return "network accept"
	}
	return ""
}

// hasCancellationPoint reports whether body contains a direct
// cancellation marker: a select, a channel receive, a range over a
// channel, or any use of a context.Context value. Go-statement payloads
// are skipped — a goroutine that spawns another cancelable goroutine is
// not itself cancelable.
func hasCancellationPoint(p *Package, body ast.Node) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if t := typeOf(p, x.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case ast.Expr:
			if isContextType(typeOf(p, x)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "context" && named.Obj().Name() == "Context"
}

// funcDisplayName renders a function object for findings:
// "(*Log).Append" or "pkg.Open".
func funcDisplayName(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return obj.Name()
	}
	sig, ok := fn.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if ptr, isPtr := t.(*types.Pointer); isPtr {
			t = ptr.Elem()
			star = "*"
		}
		if named, isNamed := t.(*types.Named); isNamed {
			return "(" + star + named.Obj().Name() + ")." + fn.Name()
		}
	}
	return fn.Name()
}
