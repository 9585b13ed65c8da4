package lint

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
)

// One loader is shared across tests so the stdlib source importer's work
// (parsing sync, time, fmt, …) is paid once, and the module is loaded once
// for every test that needs all of it.
var (
	loaderOnce sync.Once
	fixLoader  *Loader
	loaderErr  error

	moduleOnce sync.Once
	modulePkgs []*Package
	moduleErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		root, err := filepath.Abs("../..")
		if err != nil {
			loaderErr = err
			return
		}
		fixLoader, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return fixLoader
}

// moduleLoad returns every module package, loaded once per test binary.
// Skipped in -short runs: the first full-module load takes seconds under
// the source importer.
func moduleLoad(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("full-module load is slow under the source importer")
	}
	l := sharedLoader(t)
	moduleOnce.Do(func() { modulePkgs, moduleErr = l.LoadAll() })
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	return modulePkgs
}

func fixtureLoad(t *testing.T, rel string) *Package {
	t.Helper()
	dir := filepath.Join("testdata", "src", filepath.FromSlash(rel))
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := sharedLoader(t).LoadDir("fixture/"+rel, abs)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", rel, err)
	}
	return pkg
}

// expectation is one `// want "regex"` comment in a fixture.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

func collectWants(t *testing.T, pkg *Package) []expectation {
	t.Helper()
	var out []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				re, err := regexp.Compile(m[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regex: %v", pos.Filename, pos.Line, err)
				}
				out = append(out, expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return out
}

// checkFixture runs one analyzer over a fixture and matches diagnostics
// against the `// want` comments line by line.
func checkFixture(t *testing.T, a *Analyzer, rel string) []Diagnostic {
	t.Helper()
	pkg := fixtureLoad(t, rel)
	diags := RunAnalyzers([]*Package{pkg}, []*Analyzer{a})
	wants := collectWants(t, pkg)

	matched := make([]bool, len(wants))
	for _, d := range diags {
		found := false
		for i, w := range wants {
			if !matched[i] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for i, w := range wants {
		if !matched[i] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	return diags
}

func TestNondeterminismFixture(t *testing.T) {
	diags := checkFixture(t, Nondeterminism, "nondeterminism/nn")
	if len(diags) != 4 {
		t.Errorf("got %d diagnostics, want 4", len(diags))
	}
}

func TestPanicFreeFixture(t *testing.T) {
	diags := checkFixture(t, PanicFree, "panicfree/ce")
	if len(diags) != 1 {
		t.Errorf("got %d diagnostics, want 1 (shadowed panic must not count)", len(diags))
	}
}

func TestPanicFreeComputeCoreFixture(t *testing.T) {
	diags := checkFixture(t, PanicFree, "panicfree/nn")
	if len(diags) != 1 {
		t.Errorf("got %d diagnostics, want 1 (lint:allow'd platform stub must not count)", len(diags))
	}
}

// TestLockHygieneFixture runs the fixture of the former lockhygiene rule —
// slow work directly under a lock, locks on the checkout path — under
// lockorder, which absorbed it.
func TestLockHygieneFixture(t *testing.T) {
	diags := checkFixture(t, LockOrder, "lockhygiene/serve")
	if len(diags) != 4 {
		t.Errorf("got %d diagnostics, want 4 (TryLock, post-unlock calls, and refreshMu are exempt)", len(diags))
	}
}

func TestCtxPropagateFixture(t *testing.T) {
	diags := checkFixture(t, CtxPropagate, "ctxpropagate/resilience")
	if len(diags) != 4 {
		t.Errorf("got %d diagnostics, want 4 (derived contexts, selects, and ctx-free funcs are exempt)", len(diags))
	}
}

func TestObsNamesFixture(t *testing.T) {
	diags := checkFixture(t, ObsNames, "obsnames/app")
	if len(diags) != 14 {
		t.Errorf("got %d diagnostics, want 14 (non-Registry receivers and lint:allow lines are exempt)", len(diags))
	}
}

func TestErrcheckLiteFixture(t *testing.T) {
	diags := checkFixture(t, ErrcheckLite, "errcheck/app")
	if len(diags) != 2 {
		t.Errorf("got %d diagnostics, want 2", len(diags))
	}
}

// TestAllowSuppressesExactlyOne pins the suppression contract: two
// identical violations, one directive, one surviving diagnostic.
func TestAllowSuppressesExactlyOne(t *testing.T) {
	diags := checkFixture(t, PanicFree, "allow/ce")
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1", len(diags))
	}
	if !strings.Contains(diags[0].Message, "panic on the serving path") {
		t.Errorf("surviving diagnostic = %q", diags[0].Message)
	}
}

func TestHotPathAllocFixture(t *testing.T) {
	diags := checkFixture(t, HotPathAlloc, "hotpathalloc/serve")
	if len(diags) != 16 {
		t.Errorf("got %d diagnostics, want 16 (panic args, allow-pruned decls/edges, the scratch free-list-miss allow, and unreachable helpers are exempt)", len(diags))
	}
}

func TestHotPathAllocWireFixture(t *testing.T) {
	diags := checkFixture(t, HotPathAlloc, "hotpathalloc/wire")
	if len(diags) != 6 {
		t.Errorf("got %d diagnostics, want 6 (the grow-once slab allow, panic args, the pruned Dump, and unreachableGrow are exempt)", len(diags))
	}
}

func TestAtomicSanityFixture(t *testing.T) {
	diags := checkFixture(t, AtomicSanity, "atomicsanity/app")
	if len(diags) != 5 {
		t.Errorf("got %d diagnostics, want 5 (typed atomics and the lint:allow'd call are exempt)", len(diags))
	}
}

func TestGoroutineLeakFixture(t *testing.T) {
	diags := checkFixture(t, GoroutineLeak, "goroutineleak/serve")
	if len(diags) != 5 {
		t.Errorf("got %d diagnostics, want 5 (only the lint:allow'd spawn is exempt)", len(diags))
	}
}

func TestLockOrderFixture(t *testing.T) {
	diags := checkFixture(t, LockOrder, "lockorder/serve")
	if len(diags) != 7 {
		t.Errorf("got %d diagnostics, want 7 (TryLock opens no region; refreshMu is exempt from hygiene; a log line after the unlock is fine)", len(diags))
	}
}

// TestAllowStatementScope pins the widened suppression contract: a
// directive above or inside a multi-line statement covers diagnostics
// reported on the statement's inner lines, and the undirected twin is
// still reported.
func TestAllowStatementScope(t *testing.T) {
	diags := checkFixture(t, CtxPropagate, "allowstmt/resilience")
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly 1 (both directives must reach the wrapped call's inner line)", len(diags))
	}
}

// TestScopeByLastSegment pins the package-scoping rule: an analyzer with a
// Packages list skips paths whose last segment is not listed.
func TestScopeByLastSegment(t *testing.T) {
	if !Nondeterminism.applies("warper/internal/nn") {
		t.Error("internal/nn should be in scope")
	}
	if Nondeterminism.applies("warper/internal/serve") {
		t.Error("internal/serve should be out of scope for nondeterminism")
	}
	if !ErrcheckLite.applies("warper/cmd/warperd") {
		t.Error("empty Packages must mean every package")
	}
}

// TestLintRulesDocumented closes the doc loop for the rule scopes: every
// row of README's two rule tables names a shipped analyzer, every analyzer
// has a row, and a row's scope lists exactly the analyzer's Packages — or
// starts with "everywhere" when Packages is empty.
func TestLintRulesDocumented(t *testing.T) {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	codeSpan := regexp.MustCompile("`([^`]+)`")
	rows := map[string]string{} // rule → scope cell
	inSection := false
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "#") {
			inSection = line == "### Static analysis"
		}
		cells := strings.Split(line, "|")
		if !inSection || len(cells) < 4 {
			continue
		}
		if m := codeSpan.FindStringSubmatch(cells[1]); m != nil {
			rows[m[1]] = strings.TrimSpace(cells[2])
		}
	}
	for _, a := range All() {
		scope, ok := rows[a.Name]
		if !ok {
			t.Errorf("%s has no row in README's rule tables", a.Name)
			continue
		}
		delete(rows, a.Name)
		var listed []string
		if !strings.HasPrefix(scope, "everywhere") {
			for _, m := range codeSpan.FindAllStringSubmatch(scope, -1) {
				listed = append(listed, m[1])
			}
		}
		want := slices.Clone(a.Packages)
		slices.Sort(listed)
		slices.Sort(want)
		if !slices.Equal(listed, want) {
			t.Errorf("README scope of %s lists %v; the analyzer's Packages are %v (empty means everywhere)", a.Name, listed, want)
		}
	}
	for name := range rows {
		t.Errorf("README's rule tables have a row for %s, which is no shipped analyzer", name)
	}
}

// TestDiagnosticFormat pins the file:line:col rendering warperlint prints.
func TestDiagnosticFormat(t *testing.T) {
	d := Diagnostic{
		Rule:    "panicfree",
		Pos:     token.Position{Filename: "a.go", Line: 3, Column: 7},
		Message: "boom",
	}
	if got, want := d.String(), "a.go:3:7: boom (panicfree)"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestLoadAllModule loads and type-checks the entire module — the same
// work `go run ./cmd/warperlint ./...` does.
func TestLoadAllModule(t *testing.T) {
	pkgs := moduleLoad(t)
	if len(pkgs) < 20 {
		t.Fatalf("loaded %d packages, expected the whole module", len(pkgs))
	}
	seen := map[string]bool{}
	for _, p := range pkgs {
		seen[p.Path] = true
	}
	for _, want := range []string{"warper/internal/serve", "warper/internal/ce", "warper/cmd/warperd"} {
		if !seen[want] {
			t.Errorf("module load missed %s", want)
		}
	}
	// The shipped tree must be clean: this is the tier-1 gate.
	if diags := RunAnalyzers(pkgs, All()); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected diagnostic on clean tree: %s", d)
		}
	}
}
