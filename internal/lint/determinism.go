package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
)

// determinismCallPackages are the kernel packages where ambient
// non-determinism is banned outright: equal seeds must give bit-identical
// results there, because the unsupervised fixed points have no labels to
// reveal a run that silently diverged.
var determinismCallPackages = map[string]bool{
	"repro/internal/core":     true,
	"repro/internal/matrix":   true,
	"repro/internal/graph":    true,
	"repro/internal/parallel": true,
	// The staged engine times every stage; those readings must come from
	// the run's injected clock, or traces stop being replayable.
	"repro/internal/engine": true,
	// The serve daemon is not a kernel, but its breaker transitions and
	// latency accounting must be reproducible under a fake clock in tests,
	// so it takes the same discipline: all time flows through an injected
	// clock.Func.
	"repro/internal/serve": true,
	// The journal decides truncation points and replay outcomes; a wall
	// clock or ambient env read there would make crash recovery depend on
	// when (or where) the process restarted.
	"repro/internal/wal": true,
	// The retrying client's backoff schedule must be testable with an
	// injected rand.Rand and its sleeps cancellable; ambient clock reads
	// would smuggle untestable timing into the retry loop.
	"repro/internal/client": true,
	// The corpus generators promise identical datasets for equal configs
	// — the property every determinism test upstream builds on — so all
	// their randomness must flow from the seeded noiser RNG.
	"repro/internal/dataset": true,
	// The incremental index promises batch/streaming equivalence: the same
	// record set must yield bit-identical candidate graphs regardless of
	// mutation history, so no ambient state may leak into its decisions.
	"repro/internal/index": true,
}

// determinismMapPackages additionally ban order-sensitive accumulation over
// map iteration. The public er package participates because its outputs
// (cluster and match listings) feed position-aligned slices downstream.
var determinismMapPackages = map[string]bool{
	"repro":                   true,
	"repro/internal/core":     true,
	"repro/internal/matrix":   true,
	"repro/internal/graph":    true,
	"repro/internal/parallel": true,
	// The engine's snapshot keys hash option sets (sorted stopwords) and
	// its cache renders stats; neither may depend on map iteration order.
	"repro/internal/engine": true,
	// serve's /stats output lists breaker classes built from a map; the
	// wire format must not leak map iteration order.
	"repro/internal/serve": true,
	// Replay applies records in seq order and equal states must produce
	// identical segment bytes; map iteration must not order anything the
	// journal writes or restores.
	"repro/internal/wal": true,
	// The client renders nothing ordered today, but it shares the serve
	// wire format; keep it under the same discipline as it grows.
	"repro/internal/client": true,
	// Dataset records and ground-truth summaries are position-aligned with
	// downstream score vectors; map iteration must not order anything the
	// generators or accessors emit.
	"repro/internal/dataset": true,
	// The index materializes views whose pair enumeration and position
	// assignment feed position-aligned vectors downstream, and its deltas
	// are asserted bit-identical to batch builds; map iteration must not
	// order anything it emits.
	"repro/internal/index": true,
}

// Determinism returns the analyzer enforcing seeded, injected-ambient
// kernels:
//
//   - no time.Now/Since/Until in the kernel packages — inject a clock
//     (internal/clock) so runs are replayable;
//   - no os.Getenv/LookupEnv/Environ — configuration flows through Options;
//   - no global math/rand functions — only seeded *rand.Rand instances
//     (the constructors rand.New/rand.NewSource stay legal);
//   - no map iteration that accumulates into ordered output (append, or
//     float += where rounding depends on order) unless the result is sorted
//     later in the same function.
func Determinism() *Analyzer {
	packages := maps.Clone(determinismCallPackages)
	maps.Copy(packages, determinismMapPackages)
	return &Analyzer{
		Name:     "determinism",
		Doc:      "kernels use seeded RNGs and injected clocks; map iteration must not feed ordered output",
		Packages: packages,
		Run:      runDeterminism,
	}
}

// randConstructors are the math/rand functions that build seeded generators
// rather than consuming the global one.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

func runDeterminism(p *Package) []Finding {
	var out []Finding
	inCall, inMap := determinismCallPackages[p.Path], determinismMapPackages[p.Path]
	// A package outside both scopes can only be a test fixture (the runner
	// filters by Packages before Run); fixtures exercise every check.
	banCalls := inCall || (!inCall && !inMap)
	banMaps := inMap || (!inCall && !inMap)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if banCalls {
					if fd := bannedCall(p, n); fd != nil {
						out = append(out, *fd)
					}
				}
			case *ast.RangeStmt:
				if banMaps {
					out = append(out, mapOrderFindings(p, f, n)...)
				}
			}
			return true
		})
	}
	return out
}

// bannedCall flags ambient-state calls in kernel packages.
func bannedCall(p *Package, call *ast.CallExpr) *Finding {
	pkgPath, fn, ok := importedCallee(p, call)
	if !ok {
		return nil
	}
	var msg string
	switch pkgPath {
	case "time":
		if fn == "Now" || fn == "Since" || fn == "Until" {
			msg = "time." + fn + " in a kernel package: accept an injected clock (internal/clock) so runs are replayable"
		}
	case "os":
		if fn == "Getenv" || fn == "LookupEnv" || fn == "Environ" {
			msg = "os." + fn + " in a kernel package: configuration must flow through Options"
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn] {
			msg = "global math/rand." + fn + " is process-seeded: draw from a seeded *rand.Rand instead"
		}
	}
	if msg == "" {
		return nil
	}
	return &Finding{Analyzer: "determinism", Pos: p.Fset.Position(call.Pos()), Message: msg}
}

// mapOrderFindings flags order-sensitive accumulation inside a range over a
// map: appends to slices declared outside the loop, and floating-point
// compound accumulation (where the rounding of the total depends on
// iteration order). A sort call later in the same function neutralizes the
// append case — sorted output no longer depends on iteration order.
func mapOrderFindings(p *Package, f *ast.File, rng *ast.RangeStmt) []Finding {
	tv, ok := p.Info.Types[rng.X]
	if !ok || tv.Type == nil {
		return nil
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return nil
	}
	fn := enclosingFunc(f, rng.Pos())
	var out []Finding
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			id, ok := n.Fun.(*ast.Ident)
			if !ok || id.Name != "append" || len(n.Args) == 0 {
				return true
			}
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			if !declaredOutside(p, n.Args[0], rng) || sortedLater(p, fn, rng) {
				return true
			}
			out = append(out, Finding{
				Analyzer: "determinism",
				Pos:      p.Fset.Position(n.Pos()),
				Message:  "append inside map iteration feeds ordered output: sort the result afterwards or iterate a sorted key slice",
			})
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			default:
				return true
			}
			lhs := n.Lhs[0]
			if !isFloat(p, lhs) || !declaredOutside(p, lhs, rng) {
				return true
			}
			out = append(out, Finding{
				Analyzer: "determinism",
				Pos:      p.Fset.Position(n.Pos()),
				Message:  "floating-point accumulation inside map iteration: the rounding of the total depends on map order; accumulate over a sorted key slice",
			})
		}
		return true
	})
	return out
}

// declaredOutside reports whether the root object of an expression was
// declared outside the range statement (accumulating into it therefore
// escapes the loop).
func declaredOutside(p *Package, e ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
			continue
		case *ast.SelectorExpr:
			e = x.X
			continue
		case *ast.Ident:
			obj := p.Info.Uses[x]
			if obj == nil {
				obj = p.Info.Defs[x]
			}
			if obj == nil {
				return false
			}
			return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
		default:
			return false
		}
	}
}

// sortedLater reports whether the enclosing function calls into package
// sort at a position after the range statement.
func sortedLater(p *Package, fn *ast.FuncDecl, rng *ast.RangeStmt) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		if pkgPath, _, ok := importedCallee(p, call); ok && pkgPath == "sort" {
			found = true
		}
		return !found
	})
	return found
}
