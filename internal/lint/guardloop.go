package lint

import (
	"go/ast"
	"go/types"
)

// guardCheckpointType is the fully-qualified receiver type whose method
// calls count as cancellation polls.
const guardCheckpointType = "repro/internal/guard.Checkpoint"

// guardLoopPackages are the hot-path packages whose kernels must stay
// cancellable: every candidate enumeration, ITER sweep, CliqueRank power
// and baseline iteration lives here, and a nested loop that never polls a
// checkpoint is exactly how a new kernel silently becomes uncancellable.
var guardLoopPackages = map[string]bool{
	"repro/internal/core":      true,
	"repro/internal/baselines": true,
	// The staged engine owns the blocking degradation loop and drives the
	// fusion rounds; its loops must poll the run's checkpoint.
	"repro/internal/engine": true,
	// WAL replay walks every frame of every segment; recovery of a large
	// journal must stay cancellable through the same checkpoint contract.
	"repro/internal/wal": true,
	// The index's batch build and pair rebuilds enumerate term posting
	// lists — the quadratic-prone shape of candidate generation — and must
	// stay cancellable at 100k-record scale.
	"repro/internal/index": true,
}

// GuardLoop returns the analyzer enforcing the PR-1 cancellation contract:
// in the hot-path packages, any function containing a nested loop must
// reach a guard.Checkpoint poll (Tick or Err) — directly, or through a
// same-package function it calls. Single-level loops are exempt (they are
// linear in an input that an upstream guarded stage already bounded);
// output-sized copies and other intentionally unguarded nested loops are
// suppressed with //lint:ignore guardloop <reason>.
func GuardLoop() *Analyzer {
	return &Analyzer{
		Name:    "guardloop",
		Scope:   "internal/{core,blocking,baselines,engine,wal,index}",
		Doc:     "nested loops in hot-path packages must poll a guard.Checkpoint",
		Applies: func(pkgPath string) bool { return guardLoopPackages[pkgPath] },
		Run:     runGuardLoop,
	}
}

// guardFuncInfo is the per-function summary the analyzer derives.
type guardFuncInfo struct {
	decl       *ast.FuncDecl
	file       *ast.File
	nestedLoop ast.Node // first nested loop found, nil when none
	polls      bool     // calls a guard.Checkpoint method directly
	callees    []types.Object
}

func runGuardLoop(p *Package) []Finding {
	// Pass 1: summarize every function — does it poll, whom does it call,
	// does it contain a nested loop (counting loops inside closures, which
	// run on the same goroutine budget).
	infos := make(map[types.Object]*guardFuncInfo)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			obj := p.Info.Defs[fn.Name]
			if obj == nil {
				continue
			}
			info := &guardFuncInfo{decl: fn, file: f}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ForStmt:
					if info.nestedLoop == nil && containsLoop(n.Body) {
						info.nestedLoop = n
					}
				case *ast.RangeStmt:
					if info.nestedLoop == nil && containsLoop(n.Body) {
						info.nestedLoop = n
					}
				case *ast.CallExpr:
					if methodReceiverType(p, n) == guardCheckpointType {
						info.polls = true
					}
					if callee := calleeObject(p, n); callee != nil && callee.Pkg() == p.Types {
						info.callees = append(info.callees, callee)
					}
				}
				return true
			})
			infos[obj] = info
		}
	}

	// Pass 2: propagate "reaches a poll" through the same-package call
	// graph to a fixed point, so helpers called from a polling driver
	// (and drivers delegating the poll to a kernel) both qualify.
	reaches := make(map[types.Object]bool)
	for obj, info := range infos {
		if info.polls {
			reaches[obj] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, info := range infos {
			if reaches[obj] {
				continue
			}
			for _, callee := range info.callees {
				if reaches[callee] {
					reaches[obj] = true
					changed = true
					break
				}
			}
		}
	}

	var out []Finding
	for obj, info := range infos {
		if info.nestedLoop == nil || reaches[obj] {
			continue
		}
		out = append(out, Finding{
			Analyzer: "guardloop",
			Pos:      p.Fset.Position(info.nestedLoop.Pos()),
			Message:  "nested loop in hot-path function " + obj.Name() + " never reaches a guard.Checkpoint poll; add opts.Check.Tick()/Err() or call a kernel that polls",
		})
	}
	return out
}

// containsLoop reports whether a statement block contains any for/range
// statement (at any depth, including inside function literals).
func containsLoop(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			found = true
		}
		return !found
	})
	return found
}

// calleeObject resolves the called function or method to its declaration
// object, or nil for builtins, closures and indirect calls.
func calleeObject(p *Package, call *ast.CallExpr) types.Object {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		if obj, ok := p.Info.Uses[fn].(*types.Func); ok {
			return obj
		}
	case *ast.SelectorExpr:
		if obj, ok := p.Info.Uses[fn.Sel].(*types.Func); ok {
			return obj
		}
	}
	return nil
}
