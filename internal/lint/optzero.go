package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// optZeroPackages hold the Options structs whose zero values are API
// surface: the public er.Options, the internal core.Options it lowers
// into, and the daemon's serve.Options (whose zero value must boot a
// working server).
var optZeroPackages = map[string]bool{
	"repro":                true,
	"repro/internal/core":  true,
	"repro/internal/serve": true,
	// wal.Options is configured from serve.Options field by field; its
	// zero values (fsync-per-append, default segment size) are the safety
	// defaults and must stay documented.
	"repro/internal/wal": true,
}

// zeroDocPattern recognizes a documented zero-value behavior. It accepts
// the vocabulary the existing fields use — "zero", "default", "nil",
// "unset", "empty", "omitted" — plus the "0 disables/means/selects/..."
// phrasing, while not being fooled by decimal constants like 0.98.
var zeroDocPattern = regexp.MustCompile(`(?i)\bzero\b|\bdefault\b|\bnil\b|\bunset\b|\bempty\b|\bomitted\b|\b0 (disables|means|keeps|selects|is|enables|leaves|relies|reproduces)\b`)

// OptZero returns the analyzer enforcing Options hygiene: every non-bool
// field of er.Options and core.Options must carry a doc comment that states
// what the zero value does. The zero value is the one configuration every
// caller who forgets a field silently runs with — "A zero Seed selects the
// default seed 1" is API, not prose. Bool fields are exempt: false is the
// documented feature-off state by Go convention.
func OptZero() *Analyzer {
	return &Analyzer{
		Name:     "optzero",
		Doc:      "every Options field documents its zero-value behavior in its doc comment",
		Packages: optZeroPackages,
		Run:      runOptZero,
	}
}

func runOptZero(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Options" {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				out = append(out, checkOptionsFields(p, st)...)
			}
		}
	}
	return out
}

func checkOptionsFields(p *Package, st *ast.StructType) []Finding {
	var out []Finding
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			continue // embedded field: documented by its own type
		}
		if isBoolField(p, field.Type) {
			continue
		}
		doc := fieldDoc(field)
		names := make([]string, 0, len(field.Names))
		for _, n := range field.Names {
			names = append(names, n.Name)
		}
		name := strings.Join(names, ", ")
		switch {
		case doc == "":
			out = append(out, Finding{
				Analyzer: "optzero",
				Pos:      p.Fset.Position(field.Pos()),
				Message:  "Options field " + name + " has no doc comment; document what the zero value does",
			})
		case !zeroDocPattern.MatchString(doc):
			out = append(out, Finding{
				Analyzer: "optzero",
				Pos:      p.Fset.Position(field.Pos()),
				Message:  "Options field " + name + " does not document its zero-value behavior (say what zero/nil/unset selects)",
			})
		}
	}
	return out
}

// isBoolField reports whether the field's type is boolean.
func isBoolField(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	basic, ok := tv.Type.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsBoolean != 0
}

// fieldDoc joins a field's doc comment and trailing line comment.
func fieldDoc(field *ast.Field) string {
	var parts []string
	if field.Doc != nil {
		parts = append(parts, field.Doc.Text())
	}
	if field.Comment != nil {
		parts = append(parts, field.Comment.Text())
	}
	return strings.TrimSpace(strings.Join(parts, " "))
}
