package lint

import "go/ast"

// GoroutineLeak pins the lifecycle half of the resilience story: a
// goroutine without a way out outlives its server, pins its captures, and
// turns every test binary into a slow leak; the ROADMAP's multi-tenant
// fleet work multiplies whatever leaks today. The serving, adaptation and
// annotation packages therefore spawn nothing themselves: fan-out goes
// through internal/parallel, whose fixed-size pool is started once per
// process and whose Run waits for its helpers before returning, so the one
// spawn site left in the module is reviewable by eye. A goroutine that
// genuinely cannot go through a Runner takes a //lint:allow goroutineleak
// naming what stops it and what waits for it.
var GoroutineLeak = &Analyzer{
	Name:     "goroutineleak",
	Doc:      "no go statements in serving/adaptation packages; fan out through internal/parallel, whose Run waits for its helpers",
	Packages: []string{"serve", "resilience", "obs", "adapt", "annotator"},
	Run:      runGoroutineLeak,
}

func runGoroutineLeak(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(gs.Pos(), "go statement in package %s: fan out through a parallel.Runner, whose Run waits for its helpers, so no goroutine outlives its owner", pass.Pkg.Name())
			}
			return true
		})
	}
}
