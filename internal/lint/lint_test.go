package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint"
)

// Fixture packages live under testdata/src (which both the go tool and the
// loader's Discover skip) and are loaded under synthetic import paths chosen
// to fall inside each analyzer's package set. Expected findings are declared
// in the fixtures themselves with trailing markers:
//
//	// want <analyzer> [<analyzer>...]   findings on this line
//	// want+N <analyzer>                 findings N lines below
//
// The want+N form exists for lines that cannot carry a second comment, such
// as //lint: directives whose own malformedness is the finding.
var wantMarker = regexp.MustCompile(`// want(\+\d+)? ([a-z][a-z, ]*)$`)

// loadFixture type-checks one fixture package under the given import path.
// Each fixture gets a fresh loader so two fixtures may claim the same
// synthetic path without colliding in the cache.
func loadFixture(t *testing.T, name, asPath string) *lint.Package {
	t.Helper()
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p, err := loader.LoadDir(filepath.Join("testdata", "src", name), asPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return p
}

// expectedFindings scans a fixture directory for want markers and returns a
// multiset keyed "file:line:analyzer".
func expectedFindings(t *testing.T, name string) map[string]int {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fixture dir: %v", err)
	}
	want := make(map[string]int)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantMarker.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			target := i + 1 // 1-based line of the marker itself
			if m[1] != "" {
				n, err := strconv.Atoi(m[1][1:])
				if err != nil {
					t.Fatalf("bad want marker %q in %s", line, e.Name())
				}
				target += n
			}
			for _, a := range strings.Fields(strings.ReplaceAll(m[2], ",", " ")) {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), target, a)]++
			}
		}
	}
	return want
}

// checkFixture runs the analyzers over the fixture and compares the
// surviving findings against the want markers.
func checkFixture(t *testing.T, name, asPath string, analyzers ...*lint.Analyzer) {
	t.Helper()
	p := loadFixture(t, name, asPath)
	findings := lint.Run([]*lint.Package{p}, analyzers)
	got := make(map[string]int)
	for _, f := range findings {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer)]++
	}
	want := expectedFindings(t, name)
	for key, n := range want {
		if got[key] != n {
			t.Errorf("fixture %s: want %d finding(s) at %s, got %d", name, n, key, got[key])
		}
	}
	for key, n := range got {
		if want[key] != n {
			t.Errorf("fixture %s: unexpected finding at %s (x%d)", name, key, n)
		}
	}
	if t.Failed() {
		for _, f := range findings {
			t.Logf("  %s", f)
		}
	}
}

// TestLoaderHonoursBuildConstraints loads a package that declares g once
// for amd64 and once for every other architecture: the loader must
// type-check only the host's variant, as the go command builds it.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"k.go":       "package k\n\nfunc F() int { return g() }\n",
		"k_amd64.go": "package k\n\nfunc g() int { return 1 }\n",
		"k_other.go": "//go:build !amd64\n\npackage k\n\nfunc g() int { return 2 }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	p, err := loader.LoadDir(dir, "repro/internal/lint/testdata/k")
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(p.Files) != 2 {
		t.Fatalf("loaded %d files, want 2 (k.go and the host's variant of g)", len(p.Files))
	}
}

func TestNoPanicFixture(t *testing.T) {
	checkFixture(t, "nopanic", "fixture/nopanic", lint.NoPanic())
}

func TestNoPanicMainExempt(t *testing.T) {
	checkFixture(t, "nopanicmain", "fixture/nopanicmain", lint.NoPanic())
}

func TestGuardLoopFixture(t *testing.T) {
	checkFixture(t, "guardloop", "repro/internal/baselines", lint.GuardLoop())
}

func TestDeterminismFixture(t *testing.T) {
	checkFixture(t, "determinism", "repro/internal/core", lint.Determinism())
}

func TestFloatGuardFixture(t *testing.T) {
	checkFixture(t, "floatguard", "repro/internal/core", lint.FloatGuard())
}

func TestErrWrapFixture(t *testing.T) {
	checkFixture(t, "errwrap", "repro", lint.ErrWrap())
}

func TestOptZeroFixture(t *testing.T) {
	checkFixture(t, "optzero", "repro/internal/core", lint.OptZero())
}

func TestDirectiveFindings(t *testing.T) {
	checkFixture(t, "directives", "fixture/directives", lint.NoPanic())
}

func TestLockHoldFixture(t *testing.T) {
	checkFixture(t, "lockhold", "repro/internal/wal", lint.LockHold())
}

func TestGoLeakFixture(t *testing.T) {
	checkFixture(t, "goleak", "fixture/goleak", lint.GoLeak())
}

func TestFsyncOrderFixture(t *testing.T) {
	checkFixture(t, "fsyncorder", "repro/internal/wal", lint.FsyncOrder())
}

// TestStaleDirectiveFixture runs the full suite so every directive in the
// fixture is eligible for staleness: used ones stay silent, unexercised
// ones fire, and one naming an analyzer that does not cover the package is
// left alone.
func TestStaleDirectiveFixture(t *testing.T) {
	checkFixture(t, "stale", "repro/internal/core", lint.All()...)
}

// TestAppliesScoping pins the runner's package filter: an analyzer whose
// Packages excludes the fixture's path must report nothing there, even on a
// fixture full of its findings.
func TestAppliesScoping(t *testing.T) {
	p := loadFixture(t, "floatguard", "repro/internal/textproc")
	findings := lint.Run([]*lint.Package{p}, []*lint.Analyzer{lint.FloatGuard()})
	if len(findings) != 0 {
		t.Errorf("floatguard ran outside repro/internal/core: %v", findings)
	}
}

// TestDiscoverSkipsTestdata pins the walker's ./... semantics.
func TestDiscoverSkipsTestdata(t *testing.T) {
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	paths, err := loader.Discover()
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	seen := make(map[string]bool, len(paths))
	for _, p := range paths {
		if strings.Contains(p, "testdata") {
			t.Errorf("Discover returned a testdata package: %s", p)
		}
		seen[p] = true
	}
	for _, must := range []string{"repro", "repro/internal/core", "repro/internal/lint", "repro/cmd/erlint"} {
		if !seen[must] {
			t.Errorf("Discover missed %s (got %v)", must, paths)
		}
	}
	if !sort.StringsAreSorted(paths) {
		t.Errorf("Discover output not sorted: %v", paths)
	}
}

// TestRepoIsClean is the acceptance gate: the committed tree must lint
// clean, so any PR that introduces a violation fails the ordinary go test
// run even before CI invokes the erlint binary.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	loader, err := lint.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	paths, err := loader.Discover()
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	var pkgs []*lint.Package
	for _, path := range paths {
		p, err := loader.Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		pkgs = append(pkgs, p)
	}
	findings := lint.Run(pkgs, lint.All())
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Errorf("%d finding(s); fix or suppress with a reasoned //lint:ignore", len(findings))
	}
}
