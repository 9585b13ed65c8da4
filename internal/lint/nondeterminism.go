package lint

import (
	"go/ast"
	"go/types"
)

// Nondeterminism enforces the reproducibility contract behind every table
// in the paper: algorithm packages — and the packages that generate every
// experiment's inputs (datasets, workloads, baselines, metrics) — must draw
// randomness only from injected *rand.Rand values (seeded per Config.Seed)
// and must never read the wall clock directly. A single rand.Intn or
// time.Now in a training loop makes Tables 5–9 unreproducible across runs.
var Nondeterminism = &Analyzer{
	Name:     "nondeterminism",
	Doc:      "algorithm packages must not use time.Now or the global math/rand source",
	Packages: []string{"nn", "gbt", "kernel", "ce", "warper", "drift", "pool", "resilience", "workload", "dataset", "adapt", "mathx", "metrics"},
	Run:      runNondeterminism,
}

func runNondeterminism(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[sel.Sel]
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			// Methods (e.g. (*rand.Rand).Float64) have a receiver and are
			// exactly the injected-RNG style the rule mandates.
			if fn.Type().(*types.Signature).Recv() != nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "time":
				if fn.Name() == "Now" {
					pass.Reportf(sel.Pos(), "time.Now in algorithm package %s: route wall-clock through simclock or the obs seam", pass.Pkg.Name())
				}
			case "math/rand":
				// Constructors build injected sources; everything else is
				// the shared global source.
				if fn.Name() != "New" && fn.Name() != "NewSource" && fn.Name() != "NewZipf" {
					pass.Reportf(sel.Pos(), "global math/rand.%s in algorithm package %s: inject a seeded *rand.Rand instead", fn.Name(), pass.Pkg.Name())
				}
			}
			return true
		})
	}
}
