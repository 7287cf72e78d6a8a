package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// FloatGuard returns the analyzer protecting the fusion loop's numerics.
// The ITER/CliqueRank fixed points converge to *something* on almost any
// input — a NaN or ±Inf introduced by an unguarded division does not crash,
// it silently corrupts the result, which is why PR 1 added the sanitization
// pass (core.sanitizeNonNegative / sanitizeProbabilities). This analyzer
// keeps new arithmetic inside that envelope in internal/core:
//
//   - float division requires a visible pole guard: the denominator must be
//     a constant, contain a non-zero literal term, or have one of its
//     operands compared (==, !=, <, >, <=, >=) somewhere in the enclosing
//     function;
//   - float equality between two non-constant operands is flagged (NaN
//     never compares equal and rounding makes == meaningless); comparisons
//     against constants stay legal because `x == 0` zero-guards are the
//     sanctioned idiom.
//
// Divisions whose safety is structural rather than visible carry a
// //lint:ignore floatguard <reason>.
func FloatGuard() *Analyzer {
	return &Analyzer{
		Name:     "floatguard",
		Doc:      "fusion-loop float divisions need a visible zero-guard; no float equality",
		Packages: map[string]bool{"repro/internal/core": true},
		Run:      runFloatGuard,
	}
}

func runFloatGuard(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				switch n.Op {
				case token.EQL, token.NEQ:
					if isFloat(p, n.X) && isFloat(p, n.Y) && !isConstant(p, n.X) && !isConstant(p, n.Y) {
						out = append(out, Finding{
							Analyzer: "floatguard",
							Pos:      p.Fset.Position(n.OpPos),
							Message:  "float equality between non-constant operands: NaN and rounding make == unreliable; compare a difference against a tolerance",
						})
					}
				case token.QUO:
					if isFloat(p, n.Y) {
						out = append(out, checkDenominator(p, f, n.Y)...)
					}
				}
			case *ast.AssignStmt:
				if n.Tok == token.QUO_ASSIGN && len(n.Rhs) == 1 && isFloat(p, n.Lhs[0]) {
					out = append(out, checkDenominator(p, f, n.Rhs[0])...)
				}
			}
			return true
		})
	}
	return out
}

// checkDenominator flags d unless it is visibly protected against zero.
func checkDenominator(p *Package, f *ast.File, d ast.Expr) []Finding {
	if isConstant(p, d) || containsNonzeroLiteral(d) {
		return nil
	}
	fn := enclosingFunc(f, d.Pos())
	if fn != nil && comparedInFunc(p, fn, d) {
		return nil
	}
	return []Finding{{
		Analyzer: "floatguard",
		Pos:      p.Fset.Position(d.Pos()),
		Message:  "float division by " + types.ExprString(d) + " has no visible zero-guard in this function; guard the denominator or annotate with //lint:ignore floatguard <reason>",
	}}
}

// containsNonzeroLiteral reports whether the expression contains a numeric
// literal other than zero — `1 + x` style denominators are poles only when
// x can reach exactly -1, which the additive form makes a deliberate
// choice rather than an oversight.
func containsNonzeroLiteral(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		lit, ok := n.(*ast.BasicLit)
		if !ok {
			return true
		}
		switch lit.Kind {
		case token.INT, token.FLOAT:
			if v, err := strconv.ParseFloat(lit.Value, 64); err == nil && v != 0 {
				found = true
			}
		}
		return !found
	})
	return found
}

// comparedInFunc reports whether any atom of the denominator (an
// identifier, selector or index expression inside it) appears as an
// operand of a comparison somewhere in the enclosing function — the
// visible-guard criterion. The match is textual on purpose: the guard and
// the division must name the same thing for a reader to connect them.
func comparedInFunc(p *Package, fn *ast.FuncDecl, d ast.Expr) bool {
	atoms := exprAtoms(p, d)
	if len(atoms) == 0 {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		cmp, ok := n.(*ast.BinaryExpr)
		if !ok {
			return !found
		}
		switch cmp.Op {
		case token.EQL, token.NEQ, token.LSS, token.GTR, token.LEQ, token.GEQ:
			for _, operand := range []ast.Expr{cmp.X, cmp.Y} {
				for atom := range exprAtoms(p, operand) {
					if atoms[atom] {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// exprAtoms collects the value-naming sub-expressions of e (identifiers,
// selectors, index expressions) by their source text. Identifiers that name
// builtins or types (len, float64) are excluded: `float64(len(xs))` guards
// on xs, not on the conversion machinery around it.
func exprAtoms(p *Package, e ast.Expr) map[string]bool {
	atoms := make(map[string]bool)
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			switch p.Info.Uses[n].(type) {
			case *types.Builtin, *types.TypeName, nil:
				return true
			}
			atoms[n.Name] = true
		case *ast.SelectorExpr, *ast.IndexExpr:
			atoms[types.ExprString(n.(ast.Expr))] = true
		}
		return true
	})
	return atoms
}
