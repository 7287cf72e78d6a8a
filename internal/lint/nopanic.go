package lint

import (
	"go/ast"
	"go/types"
)

// NoPanic returns the analyzer enforcing the PR-1 panic policy: library
// code must not panic. The public entry points install a recovery boundary
// (er.recoverToError) that converts internal panics into errors wrapping
// er.ErrInternal, but that boundary exists for bugs — it must not become a
// control-flow channel, and new code must not grow panics that a future
// refactor could move outside the boundary. Intentional programmer-error
// asserts (dimension checks in internal/matrix, alignment preconditions)
// are allowed when annotated with //lint:invariant <reason> on the panic or
// in the enclosing function's doc comment.
//
// Commands and examples (package main) are exempt: a CLI terminating on an
// impossible state crashes only itself.
func NoPanic() *Analyzer {
	return &Analyzer{
		Name: "nopanic",
		Doc:  "library code must not call panic() without a //lint:invariant justification",
		Run:  runNoPanic,
	}
}

func runNoPanic(p *Package) []Finding {
	if p.Types.Name() == "main" {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true // a local function shadowing the builtin
			}
			pos := p.Fset.Position(call.Pos())
			if p.invariantAt(pos, enclosingFunc(f, call.Pos())) {
				return true
			}
			out = append(out, Finding{
				Analyzer: "nopanic",
				Pos:      pos,
				Message:  "panic in library code: return an error wrapping the er taxonomy, or annotate an intentional assert with //lint:invariant <reason>",
			})
			return true
		})
	}
	return out
}
