package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and type-checks the packages of one Go module using only
// the standard library: module-internal imports ("repro/...") are resolved
// against the module tree and type-checked recursively, while standard
// library imports are delegated to the source importer (which reads GOROOT
// and therefore works offline). The golang.org/x/tools machinery this
// replaces is not available in the build environment by design — the lint
// suite must be runnable anywhere the repository compiles.
type Loader struct {
	// ModuleRoot is the absolute directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod ("repro").
	ModulePath string
	// Fset is shared by every file of every loaded package, so positions
	// from different packages are directly comparable.
	Fset *token.FileSet

	std  types.Importer
	pkgs map[string]*Package
}

// Package is one parsed, type-checked, non-test package of the module —
// the unit every analyzer runs on.
type Package struct {
	// Path is the import path (e.g. "repro/internal/core").
	Path string
	// Dir is the absolute directory of the package.
	Dir string
	// Fset is the loader's shared file set.
	Fset *token.FileSet
	// Files holds the parsed non-test files, sorted by file name.
	Files []*ast.File
	// Types and Info carry the go/types results for the package.
	Types *types.Package
	// Info holds type-checker facts (expression types, uses, selections).
	Info *types.Info

	suppressions map[string][]*directive
}

// NewLoader builds a loader for the module rooted at dir (or any directory
// below the module root; the root is found by walking up to go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod found above %s", abs)
		}
		root = parent
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		Fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
	}, nil
}

// modulePath extracts the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module declaration in %s", gomod)
}

// Discover returns the import paths of every non-test Go package under the
// module root, sorted. Directories named testdata, hidden directories and
// vendor trees are skipped, mirroring the go tool's "./..." semantics.
func (l *Loader) Discover() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		has, err := hasGoFiles(path)
		if err != nil {
			return err
		}
		if !has {
			return nil
		}
		rel, err := filepath.Rel(l.ModuleRoot, path)
		if err != nil {
			return err
		}
		if rel == "." {
			paths = append(paths, l.ModulePath)
		} else {
			paths = append(paths, l.ModulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

func hasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		if !e.IsDir() && isLintedFile(dir, e.Name()) {
			return true, nil
		}
	}
	return false, nil
}

// isLintedFile reports whether a file participates in the lint run:
// ordinary .go sources, excluding tests (test-only panics and fixed seeds
// are legitimate) and editor artifacts, that the go command builds for the
// host's GOOS and GOARCH, so one architecture's variant of a declaration
// is checked and its siblings behind other build constraints are not. A
// file whose constraints cannot be read is kept, for the parser to report.
func isLintedFile(dir, name string) bool {
	if !strings.HasSuffix(name, ".go") ||
		strings.HasSuffix(name, "_test.go") ||
		strings.HasPrefix(name, ".") ||
		strings.HasPrefix(name, "_") {
		return false
	}
	match, err := build.Default.MatchFile(dir, name)
	return err != nil || match
}

// Load parses and type-checks the package with the given module-internal
// import path (results are cached, so shared dependencies are checked once).
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirFor(path)
	if !ok {
		return nil, fmt.Errorf("lint: import path %q is outside module %s", path, l.ModulePath)
	}
	return l.LoadDir(dir, path)
}

// LoadDir parses and type-checks the package in dir under the given import
// path. It exists separately from Load for the fixture packages of the
// analyzer tests, which live under testdata and therefore have no real
// import path.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !isLintedFile(dir, e.Name()) {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parsing %s: %w", e.Name(), err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importerFunc(l.importDep)}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.Fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}
	p.buildSuppressions()
	l.pkgs[path] = p
	return p, nil
}

// importDep resolves one import encountered during type-checking:
// module-internal paths recurse into Load, everything else goes to the
// standard library source importer.
func (l *Loader) importDep(path string) (*types.Package, error) {
	if _, ok := l.dirFor(path); ok {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// dirFor maps a module-internal import path to its directory.
func (l *Loader) dirFor(path string) (string, bool) {
	if path == l.ModulePath {
		return l.ModuleRoot, true
	}
	if rest, ok := strings.CutPrefix(path, l.ModulePath+"/"); ok {
		return filepath.Join(l.ModuleRoot, filepath.FromSlash(rest)), true
	}
	return "", false
}

// importerFunc adapts a function to the types.Importer interface.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
