// Package lint is a dependency-free static-analysis framework for the
// warper module, built only on the standard library's go/parser and
// go/types. It exists because the invariants that make the paper's results
// reproducible — seed-determinism of every training path, a serving stack
// that degrades instead of dying, no slow work under the serving lock —
// are not expressible as go vet checks, yet regress silently under
// ordinary refactoring.
//
// The framework loads every package in the module (tests excluded),
// type-checks it with the source importer, and runs project-specific
// analyzers that report file:line diagnostics. Analyzers come in two
// shapes: local ones see a single package at a time (Run), and
// module-wide ones see every loaded package plus a CHA-style call graph
// over them (RunModule) — the latter carry the transitive invariants
// (hot-path allocation-freedom, lock ordering) that no per-package view
// can check.
//
// A diagnostic can be suppressed with a directive comment:
//
//	//lint:allow <rule> [reason...]
//
// placed on the violating line, on the line directly above it, or
// anywhere inside the violating statement. A directive covers its own
// line, the next line, and the full line range of the enclosing or
// directly-following statement — so a violation deep inside a multi-line
// wrapped call is suppressible at the statement head, and a directive
// above a compound statement (an if-block of intentional allocations,
// say) covers that whole statement. It still cannot blanket a file: the
// reach of every allow is visible from the code shape below it.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer checks one project invariant. Local analyzers (Run) see one
// type-checked package at a time; module-wide analyzers (RunModule) see
// the whole loaded module and its call graph. Exactly one of Run and
// RunModule is set.
type Analyzer struct {
	// Name is the rule name used in diagnostics and //lint:allow.
	Name string
	// Doc is a one-line description shown by warperlint -rules.
	Doc string
	// Packages restricts the analyzer to packages whose import path's
	// last segment is in the list. Empty means every package. For
	// module-wide analyzers the list documents where diagnostics land;
	// the call graph underneath always spans every loaded package.
	Packages []string
	// Run inspects one package and reports diagnostics via the pass.
	Run func(*Pass)
	// RunModule inspects the whole module through a ModulePass carrying
	// every loaded package and the call graph built over them.
	RunModule func(*ModulePass)
}

// ModuleWide reports whether the analyzer needs the whole module and its
// call graph rather than one package at a time.
func (a *Analyzer) ModuleWide() bool { return a.RunModule != nil }

// Scope renders the analyzer's package scope for warperlint -rules.
func (a *Analyzer) Scope() string {
	if len(a.Packages) == 0 {
		return "all packages"
	}
	return strings.Join(a.Packages, ",")
}

// applies reports whether the analyzer runs on the given import path.
func (a *Analyzer) applies(pkgPath string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	seg := pkgPath
	if i := strings.LastIndex(pkgPath, "/"); i >= 0 {
		seg = pkgPath[i+1:]
	}
	for _, p := range a.Packages {
		if p == seg {
			return true
		}
	}
	return false
}

// A Pass carries one local analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// A ModulePass carries one module-wide analyzer's view of every loaded
// package and the call graph over them.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkgs     []*Package
	Graph    *CallGraph

	allows []allowDirective
	diags  []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		Pos:     p.Fset.Position(pos),
		Message: fmt.Sprintf(format, args...),
	})
}

// Allowed reports whether pos is covered by a //lint:allow directive for
// this analyzer's rule. Module-wide analyzers use it to prune call-graph
// traversal: an allow on a call site cuts the edge, an allow on a
// function declaration prunes the whole function.
func (p *ModulePass) Allowed(pos token.Pos) bool {
	where := p.Fset.Position(pos)
	for _, a := range p.allows {
		if a.rule == p.Analyzer.Name && a.file == where.Filename &&
			a.start <= where.Line && where.Line <= a.end {
			return true
		}
	}
	return false
}

// A Diagnostic is one rule violation at one source position.
type Diagnostic struct {
	Rule    string
	Pos     token.Position
	Message string
}

// String formats the diagnostic as file:line:col: message (rule).
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Rule)
}

// allowDirective is one parsed //lint:allow comment, covering the line
// range [start, end] in file.
type allowDirective struct {
	rule  string
	file  string
	start int
	end   int
}

// directivePrefix introduces a suppression comment.
const directivePrefix = "//lint:allow"

// stmtSpan is the line range of one statement, used to widen directive
// coverage to full statements.
type stmtSpan struct {
	start, end int
	compound   bool // if/for/range/switch/select: eligible as following, not enclosing
}

// collectAllows extracts every //lint:allow directive in the files and
// computes its coverage range: the directive's own line and the next,
// widened to the full span of (a) the smallest simple statement enclosing
// the directive — so a trailing comment inside a multi-line wrapped call
// covers the whole call — and (b) the statement starting on the next
// line — so a directive above a wrapped call or an intentional compound
// block covers all of it. Compound statements (if/for/switch/…) never
// count as enclosing: a directive floating inside their body covers only
// its neighborhood, not the whole block.
func collectAllows(fset *token.FileSet, files []*ast.File) []allowDirective {
	var out []allowDirective
	for _, f := range files {
		var spans []stmtSpan
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(ast.Stmt)
			if !ok {
				return true
			}
			switch st.(type) {
			case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause:
				return true // bodies are covered via their inner statements
			}
			sp := stmtSpan{
				start: fset.Position(st.Pos()).Line,
				end:   fset.Position(st.End()).Line,
			}
			switch st.(type) {
			case *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
				*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt, *ast.LabeledStmt:
				sp.compound = true
			}
			spans = append(spans, sp)
			return true
		})
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(c.Text)
				if !strings.HasPrefix(text, directivePrefix) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, directivePrefix))
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				d := allowDirective{rule: fields[0], file: pos.Filename, start: pos.Line, end: pos.Line + 1}
				// Smallest simple statement enclosing the directive line.
				enc := -1
				for i, s := range spans {
					if s.compound || s.start > pos.Line || s.end < pos.Line {
						continue
					}
					if enc < 0 || s.end-s.start < spans[enc].end-spans[enc].start {
						enc = i
					}
				}
				// Smallest statement starting on the line below.
				next := -1
				for i, s := range spans {
					if s.start != pos.Line+1 {
						continue
					}
					if next < 0 || s.end-s.start < spans[next].end-spans[next].start {
						next = i
					}
				}
				for _, i := range []int{enc, next} {
					if i < 0 {
						continue
					}
					if spans[i].start < d.start {
						d.start = spans[i].start
					}
					if spans[i].end > d.end {
						d.end = spans[i].end
					}
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// suppressed reports whether d is covered by a directive: same rule, same
// file, diagnostic line inside the directive's coverage range.
func suppressed(d Diagnostic, allows []allowDirective) bool {
	for _, a := range allows {
		if a.rule == d.Rule && a.file == d.Pos.Filename &&
			a.start <= d.Pos.Line && d.Pos.Line <= a.end {
			return true
		}
	}
	return false
}

// RunAnalyzers runs every applicable analyzer over the loaded packages and
// returns the surviving (non-suppressed) diagnostics sorted by position.
// Local analyzers run per package; module-wide analyzers run once over the
// whole set, with the call graph built lazily on first need.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var out []Diagnostic
	var allAllows []allowDirective
	for _, pkg := range pkgs {
		allows := collectAllows(pkg.Fset, pkg.Files)
		allAllows = append(allAllows, allows...)
		for _, a := range analyzers {
			if a.ModuleWide() || !a.applies(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			a.Run(pass)
			for _, d := range pass.diags {
				if !suppressed(d, allows) {
					out = append(out, d)
				}
			}
		}
	}
	var graph *CallGraph
	for _, a := range analyzers {
		if !a.ModuleWide() {
			continue
		}
		if graph == nil {
			graph = BuildCallGraph(pkgs)
		}
		mp := &ModulePass{
			Analyzer: a,
			Fset:     graph.Fset,
			Pkgs:     pkgs,
			Graph:    graph,
			allows:   allAllows,
		}
		a.RunModule(mp)
		for _, d := range mp.diags {
			if !suppressed(d, allAllows) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		return out[i].Rule < out[j].Rule
	})
	return out
}

// All returns every analyzer warperlint ships, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		Nondeterminism,
		PanicFree,
		ErrcheckLite,
		CtxPropagate,
		ObsNames,
		HotPathAlloc,
		AtomicSanity,
		GoroutineLeak,
		LockOrder,
	}
}

// ByName returns the shipped analyzer with the given rule name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}
