package lint

import (
	"go/ast"
	"strings"
)

// ErrWrap returns the analyzer enforcing the error taxonomy at the public
// API boundary (the root er package): callers are promised they can branch
// with errors.Is against the Err* sentinels, so every constructed error
// must either wrap (%w) or be one of them. Concretely:
//
//   - fmt.Errorf without a %w verb creates a leaf error no errors.Is can
//     classify — wrap a sentinel or the underlying cause;
//   - errors.New inside a function body creates a stringly-typed sentinel
//     invisible to the taxonomy — the package-level sentinels in errors.go
//     are the only legal errors.New sites.
//
// The WAL takes the same discipline: crash recovery branches on the
// wal.Err* sentinels (a typed ErrCorrupt is the contract that keeps a
// damaged journal from being mistaken for a torn tail), so every error it
// constructs must stay classifiable.
func ErrWrap() *Analyzer {
	return &Analyzer{
		Name:     "errwrap",
		Doc:      "public-API errors must wrap the errors.go taxonomy (%w); no ad-hoc sentinels",
		Packages: errWrapPackages,
		Run:      runErrWrap,
	}
}

// errWrapPackages are the packages whose error values are contract: the
// public er API and the journal whose sentinels gate recovery decisions.
var errWrapPackages = map[string]bool{
	"repro":              true,
	"repro/internal/wal": true,
	// The client's sentinels are the er taxonomy's HTTP-side mirror;
	// callers branch on them with errors.Is, so they are contract too.
	"repro/internal/client": true,
}

func runErrWrap(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		fileName := p.Fset.Position(f.Pos()).Filename
		inErrorsGo := strings.HasSuffix(fileName, "errors.go")
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkgPath, fn, ok := importedCallee(p, call)
			if !ok {
				return true
			}
			switch {
			case pkgPath == "fmt" && fn == "Errorf":
				if format, ok := stringLit(call.Args[0]); ok && !strings.Contains(format, "%w") {
					out = append(out, Finding{
						Analyzer: "errwrap",
						Pos:      p.Fset.Position(call.Pos()),
						Message:  "fmt.Errorf without %w crosses the public API unclassifiable by errors.Is; wrap a taxonomy sentinel or the underlying error",
					})
				}
			case pkgPath == "errors" && fn == "New":
				if fd := enclosingFunc(f, call.Pos()); fd != nil {
					out = append(out, Finding{
						Analyzer: "errwrap",
						Pos:      p.Fset.Position(call.Pos()),
						Message:  "errors.New inside a function creates a stringly-typed sentinel; add it to the taxonomy in errors.go or wrap an existing sentinel",
					})
				} else if !inErrorsGo {
					out = append(out, Finding{
						Analyzer: "errwrap",
						Pos:      p.Fset.Position(call.Pos()),
						Message:  "taxonomy sentinels live in errors.go so the API contract stays reviewable in one place",
					})
				}
			}
			return true
		})
	}
	return out
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok {
		return "", false
	}
	s := lit.Value
	if len(s) >= 2 && (s[0] == '"' || s[0] == '`') {
		return s[1 : len(s)-1], true
	}
	return "", false
}
