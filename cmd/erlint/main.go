// Command erlint runs the repository's static-analysis suite: nine
// repo-specific analyzers — six syntactic checks plus three flow-aware
// concurrency and durability checks built on per-function CFGs and
// interprocedural call summaries — that mechanically enforce the
// pipeline's safety, determinism, cancellation and durability invariants
// (see internal/lint and DESIGN.md §7, §12).
//
// Usage:
//
//	erlint [-json] [-enable a,b] [-disable a,b] [-list] [packages]
//
// The package argument is either "./..." (the default: every non-test
// package of the module) or a comma-free list of directories. erlint exits
// 0 when the tree is clean, 1 when any finding is reported, and 2 on usage
// or load errors. Suppressions:
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>   on or above the line
//	//lint:invariant <reason>                        intentional panic asserts
//
// A directive without a reason is itself reported, and so is a directive
// that suppressed nothing in a run covering its scope (stale suppression).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array")
	enable := flag.String("enable", "", "comma-separated analyzers to run (default: all)")
	disable := flag.String("disable", "", "comma-separated analyzers to skip")
	list := flag.Bool("list", false, "list available analyzers and exit")
	flag.Parse()

	analyzers, err := selectAnalyzers(*enable, *disable)
	if err != nil {
		fmt.Fprintln(os.Stderr, "erlint:", err)
		os.Exit(2)
	}
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s [%s]\n", a.Name, a.Doc, scope(a))
		}
		return
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "erlint:", err)
		os.Exit(2)
	}
	paths, err := targetPaths(loader, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "erlint:", err)
		os.Exit(2)
	}
	var pkgs []*lint.Package
	for _, path := range paths {
		p, err := loader.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "erlint:", err)
			os.Exit(2)
		}
		pkgs = append(pkgs, p)
	}

	findings := lint.Run(pkgs, analyzers)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "erlint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
		if len(findings) > 0 {
			fmt.Fprintf(os.Stderr, "erlint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// selectAnalyzers applies -enable/-disable to the full suite.
func selectAnalyzers(enable, disable string) ([]*lint.Analyzer, error) {
	all := lint.All()
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	selected := all
	if enable != "" {
		selected = nil
		for _, name := range strings.Split(enable, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
			}
			selected = append(selected, a)
		}
	}
	if disable != "" {
		skip := make(map[string]bool)
		for _, name := range strings.Split(disable, ",") {
			if _, ok := byName[strings.TrimSpace(name)]; !ok {
				return nil, fmt.Errorf("unknown analyzer %q (try -list)", name)
			}
			skip[strings.TrimSpace(name)] = true
		}
		kept := selected[:0:0]
		for _, a := range selected {
			if !skip[a.Name] {
				kept = append(kept, a)
			}
		}
		selected = kept
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("no analyzers selected")
	}
	return selected, nil
}

// scope renders an analyzer's package set for -list.
func scope(a *lint.Analyzer) string {
	if a.Packages == nil {
		return "module-wide"
	}
	paths := make([]string, 0, len(a.Packages))
	for path := range a.Packages {
		paths = append(paths, strings.TrimPrefix(path, "repro/"))
	}
	sort.Strings(paths)
	return strings.Join(paths, ",")
}

// targetPaths resolves command-line package arguments to import paths.
// "./..." (and no arguments at all) selects every package of the module;
// anything else is a directory resolved against the module.
func targetPaths(loader *lint.Loader, args []string) ([]string, error) {
	if len(args) == 0 {
		return loader.Discover()
	}
	var out []string
	for _, arg := range args {
		if arg == "./..." || arg == "..." {
			paths, err := loader.Discover()
			if err != nil {
				return nil, err
			}
			out = append(out, paths...)
			continue
		}
		abs, err := filepath.Abs(arg)
		if err != nil {
			return nil, err
		}
		rel, err := filepath.Rel(loader.ModuleRoot, abs)
		if err != nil || strings.HasPrefix(rel, "..") {
			return nil, fmt.Errorf("package %q is outside the module", arg)
		}
		if rel == "." {
			out = append(out, loader.ModulePath)
		} else {
			out = append(out, loader.ModulePath+"/"+filepath.ToSlash(rel))
		}
	}
	return out, nil
}
