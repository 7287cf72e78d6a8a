// Package lint implements erlint, the repository's static-analysis suite.
// Each analyzer mechanically enforces one invariant the resolution pipeline
// depends on but the compiler cannot check.
//
// Six analyzers are syntactic, per package: panics stay behind the public
// recovery boundary (nopanic), hot loops remain cancellable (guardloop),
// kernels stay deterministic (determinism), float arithmetic in the fusion
// loop stays guarded against poles and NaN traps (floatguard), errors
// crossing the public API wrap the taxonomy (errwrap), and every Options
// field documents its zero value (optzero).
//
// Three analyzers are flow-aware, built on per-function control-flow graphs
// (cfg.go), an abstract lock-state lattice (lockstate.go) and interprocedural
// call-graph summaries (facts.go): no blocking operation while a mutex is
// held (lockhold), a cancellation path for every spawned goroutine (goleak),
// and the WAL durability protocol — fsync before rename, directory fsync
// after entry mutations, journal append before in-memory apply (fsyncorder).
//
// Findings are suppressed per line with a mandatory reason:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the offending line or the line directly above it. Intentional
// programmer-error asserts are marked with the nopanic-specific form
//
//	//lint:invariant <reason>
//
// on the panic itself or in the enclosing function's doc comment. A
// directive without a reason is itself a finding: unexplained suppressions
// rot into unreviewable noise. So is a stale directive — one that
// suppressed nothing in a run that included every analyzer it names: a
// suppression that outlives its finding hides the next real one at the
// same spot.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one rule violation at a source position.
type Finding struct {
	// Analyzer names the rule that fired.
	Analyzer string `json:"analyzer"`
	// Pos locates the violation.
	Pos token.Position `json:"pos"`
	// Message explains the violation and the expected fix.
	Message string `json:"message"`
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// Analyzer is one named rule over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in findings, -enable/-disable flags and
	// //lint:ignore directives.
	Name string
	// Doc is a one-line description for the driver's usage output.
	Doc string
	// Packages is the set of import paths the analyzer covers; nil means
	// every package. It is the one statement of scope: the runner filters
	// by it (module analyzers by the package owning each finding's file),
	// and erlint -list prints it, so coverage and its description cannot
	// disagree.
	Packages map[string]bool
	// Run inspects one package and returns raw findings; the runner applies
	// suppressions afterwards. Exactly one of Run and RunModule is set.
	Run func(p *Package) []Finding
	// RunModule inspects the whole run at once over the interprocedural
	// program view — the flow-aware analyzers need call-graph summaries
	// that cross package boundaries.
	RunModule func(prog *program) []Finding
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoPanic(),
		GuardLoop(),
		Determinism(),
		FloatGuard(),
		ErrWrap(),
		OptZero(),
		LockHold(),
		GoLeak(),
		FsyncOrder(),
	}
}

// Applies reports whether the analyzer covers the package.
func (a *Analyzer) Applies(pkgPath string) bool {
	return a.Packages == nil || a.Packages[pkgPath]
}

// Run executes the analyzers over the packages, applies //lint:ignore
// suppressions, reports malformed and stale directives, and returns the
// surviving findings sorted by position. Module-level analyzers see every
// package at once (their facts cross package boundaries); their findings
// are attributed to the package owning the file and filtered through that
// package's scope and suppressions.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	for _, p := range pkgs {
		p.resetDirectives()
	}
	var prog *program
	for _, a := range analyzers {
		if a.RunModule != nil {
			prog = newProgram(pkgs)
			break
		}
	}
	var out []Finding
	for _, p := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil || !a.Applies(p.Path) {
				continue
			}
			for _, f := range a.Run(p) {
				if !p.suppressed(a.Name, f.Pos) {
					out = append(out, f)
				}
			}
		}
	}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		for _, f := range a.RunModule(prog) {
			p := prog.fileOf[f.Pos.Filename]
			if p == nil || !a.Applies(p.Path) {
				continue
			}
			if !p.suppressed(a.Name, f.Pos) {
				out = append(out, f)
			}
		}
	}
	for _, p := range pkgs {
		out = append(out, p.directiveErrors()...)
		out = append(out, p.staleFindings(analyzers)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// directive is one parsed //lint: comment.
type directive struct {
	// kind is "ignore" or "invariant".
	kind string
	// analyzers lists the analyzer names an ignore covers (nil for
	// invariant, which binds to nopanic by definition).
	analyzers []string
	// reason is the mandatory justification.
	reason string
	// pos is the directive's own position.
	pos token.Position
	// used records whether the directive had any effect during the current
	// run; an eligible directive that stays unused is itself a finding.
	used bool
}

// parseDirective parses the text following "//lint:" into a directive, or
// reports ok=false for an unknown kind. Split out from buildSuppressions so
// the fuzzer can drive the parser directly.
func parseDirective(text string) (*directive, bool) {
	fields := strings.Fields(text)
	if len(fields) == 0 {
		return nil, false
	}
	d := &directive{kind: fields[0]}
	switch d.kind {
	case "ignore":
		if len(fields) > 1 {
			d.analyzers = strings.Split(fields[1], ",")
		}
		if len(fields) > 2 {
			d.reason = strings.Join(fields[2:], " ")
		}
	case "invariant":
		if len(fields) > 1 {
			d.reason = strings.Join(fields[1:], " ")
		}
	default:
		return nil, false
	}
	return d, true
}

// buildSuppressions indexes every //lint: directive by file and line.
func (p *Package) buildSuppressions() {
	p.suppressions = make(map[string][]*directive)
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				d, ok := parseDirective(text)
				if !ok {
					continue
				}
				d.pos = p.Fset.Position(c.Pos())
				p.suppressions[d.pos.Filename] = append(p.suppressions[d.pos.Filename], d)
			}
		}
	}
}

// resetDirectives clears the used flags before a run (packages are cached
// by the loader and may be linted more than once).
func (p *Package) resetDirectives() {
	for _, ds := range p.suppressions {
		for _, d := range ds {
			d.used = false
		}
	}
}

// suppressed reports whether a finding at pos is covered by an ignore
// directive for the analyzer on the same line or the line directly above,
// marking the directive used.
func (p *Package) suppressed(analyzer string, pos token.Position) bool {
	for _, d := range p.suppressions[pos.Filename] {
		if d.kind != "ignore" || d.reason == "" {
			continue
		}
		if d.pos.Line != pos.Line && d.pos.Line != pos.Line-1 {
			continue
		}
		for _, a := range d.analyzers {
			if a == analyzer {
				d.used = true
				return true
			}
		}
	}
	return false
}

// invariantAt reports whether a //lint:invariant directive with a reason
// covers pos: same line, the line directly above, or the doc comment of the
// enclosing function (fn may be nil). Matching directives are marked used.
func (p *Package) invariantAt(pos token.Position, fn *ast.FuncDecl) bool {
	for _, d := range p.suppressions[pos.Filename] {
		if d.kind != "invariant" || d.reason == "" {
			continue
		}
		if d.pos.Line == pos.Line || d.pos.Line == pos.Line-1 {
			d.used = true
			return true
		}
	}
	if fn != nil && fn.Doc != nil {
		start := p.Fset.Position(fn.Doc.Pos())
		end := p.Fset.Position(fn.Doc.End())
		for _, d := range p.suppressions[start.Filename] {
			if d.kind == "invariant" && d.reason != "" && d.pos.Line >= start.Line && d.pos.Line <= end.Line {
				d.used = true
				return true
			}
		}
	}
	return false
}

// staleFindings reports directives that had no effect in this run even
// though every analyzer they bind to ran on this package. A partial run
// (-enable some-analyzer) never declares other analyzers' directives stale.
func (p *Package) staleFindings(analyzers []*Analyzer) []Finding {
	byName := make(map[string]*Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	ranHere := func(name string) bool {
		a, ok := byName[name]
		return ok && a.Applies(p.Path)
	}
	var out []Finding
	for _, ds := range p.suppressions {
		for _, d := range ds {
			if d.used || d.reason == "" {
				continue // malformed directives are directiveErrors' findings
			}
			eligible := false
			switch d.kind {
			case "ignore":
				eligible = len(d.analyzers) > 0
				for _, name := range d.analyzers {
					eligible = eligible && ranHere(name)
				}
			case "invariant":
				eligible = ranHere("nopanic")
			}
			if eligible {
				out = append(out, Finding{Analyzer: "lint", Pos: d.pos,
					Message: fmt.Sprintf("stale //lint:%s directive: it suppressed nothing in this run; delete it", d.kind)})
			}
		}
	}
	return out
}

// directiveErrors reports malformed directives: ignore/invariant without a
// reason, and ignore without an analyzer list. These are always findings —
// a suppression that does not say what it silences or why cannot be
// reviewed.
func (p *Package) directiveErrors() []Finding {
	var out []Finding
	for _, ds := range p.suppressions {
		for _, d := range ds {
			switch {
			case d.kind == "ignore" && len(d.analyzers) == 0:
				out = append(out, Finding{Analyzer: "lint", Pos: d.pos,
					Message: "//lint:ignore needs an analyzer list: //lint:ignore <analyzer> <reason>"})
			case d.reason == "":
				out = append(out, Finding{Analyzer: "lint", Pos: d.pos,
					Message: fmt.Sprintf("//lint:%s needs a reason", d.kind)})
			}
		}
	}
	return out
}

// --- shared AST helpers used by several analyzers ---

// enclosingFunc returns the innermost FuncDecl whose body spans pos, or nil.
func enclosingFunc(f *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range f.Decls {
		if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil && fn.Body.Pos() <= pos && pos <= fn.Body.End() {
			return fn
		}
	}
	return nil
}

// importedCallee resolves a call of the form pkg.Fn to the imported
// package's path and the function name. It returns ok=false for local
// calls, method calls and anything more complex.
func importedCallee(p *Package, call *ast.CallExpr) (pkgPath, fn string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	x, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := p.Info.Uses[x].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// methodReceiverType returns the fully-qualified type name ("pkgpath.Type")
// of the receiver of a method call, or "" when call is not a method call on
// a named type.
func methodReceiverType(p *Package, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	s, ok := p.Info.Selections[sel]
	if !ok || s.Kind() != types.MethodVal {
		return ""
	}
	t := s.Recv()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

// isFloat reports whether an expression has a floating-point type.
func isFloat(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsFloat != 0
}

// isConstant reports whether the type checker evaluated e to a constant.
func isConstant(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}
