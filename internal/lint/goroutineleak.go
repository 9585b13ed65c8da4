package lint

import "go/ast"

// benchPkg is the benchmark of record: a load generator, whose concurrent
// clients are the measurement. It is the one package goroutineleak skips.
const benchPkg = "warper/bench"

// GoroutineLeak pins the lifecycle half of the resilience story: a
// goroutine without a way out outlives its server, pins its captures, and
// turns every test binary into a slow leak. The module therefore spawns
// nothing: training and adaptation run on the calling goroutine, serving
// concurrency is net/http's, and Server.Close has nothing to stop. A
// goroutine that is genuinely needed takes a //lint:allow goroutineleak
// naming what stops it and what waits for it.
var GoroutineLeak = &Analyzer{
	Name: "goroutineleak",
	Doc:  "no go statements outside the benchmark's load generator",
	Run:  runGoroutineLeak,
}

func runGoroutineLeak(pass *Pass) {
	if pass.Pkg.Path() == benchPkg {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if gs, ok := n.(*ast.GoStmt); ok {
				pass.Reportf(gs.Pos(), "go statement in package %s: nothing in the module spawns; name what stops this goroutine and what waits for it in a //lint:allow", pass.Pkg.Name())
			}
			return true
		})
	}
}
