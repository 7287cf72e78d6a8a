package lint

import (
	"go/ast"
)

// GoLeak requires every go statement to spawn a goroutine with a
// cancellation path: a select, a channel receive, a range over a
// channel, or a context.Context flowing in — directly in the payload or
// transitively through the module functions it calls. A goroutine with
// none of those can only exit by finishing on its own; if it serves a
// loop, it leaks when its owner shuts down. Intentionally unbounded
// goroutines carry a reasoned //lint:ignore goleak.
func GoLeak() *Analyzer {
	return &Analyzer{
		Name:      "goleak",
		Doc:       "every go statement needs a cancellation path (select, channel receive, range-over-channel, or context) or a reasoned //lint:ignore",
		RunModule: goLeakModule,
	}
}

func goLeakModule(prog *program) []Finding {
	var out []Finding
	for _, fi := range prog.infos {
		p := fi.pkg
		for _, blk := range fi.c.blocks {
			for _, item := range blk.items {
				g, ok := item.(*ast.GoStmt)
				if !ok {
					continue
				}
				if goStmtCancelable(prog, p, g.Call) {
					continue
				}
				out = append(out, Finding{Analyzer: "goleak", Pos: p.Fset.Position(g.Pos()),
					Message: "goroutine has no cancellation path (no select, channel receive, range over a channel, or context use, directly or via called functions); give it a stop signal"})
			}
		}
	}
	return out
}

// goStmtCancelable reports whether the spawned call has a cancellation
// path. The call expression covers both shapes: a function literal
// payload (its body is scanned directly) and a named call (its arguments
// are scanned — a context.Context argument counts — and the callee's
// summary supplies the transitive answer).
func goStmtCancelable(prog *program, p *Package, call *ast.CallExpr) bool {
	if hasCancellationPoint(p, call) {
		return true
	}
	cancel := false
	ast.Inspect(call, func(n ast.Node) bool {
		if cancel {
			return false
		}
		if inner, ok := n.(*ast.CallExpr); ok {
			if obj := calleeObject(p, inner); obj != nil {
				if g, ok := prog.funcs[obj]; ok && g.cancelable {
					cancel = true
				}
			}
		}
		return !cancel
	})
	return cancel
}
