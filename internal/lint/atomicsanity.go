package lint

import (
	"go/ast"
	"go/types"
)

// AtomicSanity guards the mixed-access invariant: once a variable is
// reached through a sync/atomic package function, a single plain read or
// write elsewhere re-introduces the race the atomic was bought to remove,
// and the race detector only catches it if a test interleaves the two. The
// typed atomics (atomic.Int64, atomic.Pointer[T], …) cannot be read
// plainly, so banning the function-style API makes the invariant hold by
// type, not by discipline. The replica pool's generation counters and the
// tracer's sequence numbers live or die by this.
var AtomicSanity = &Analyzer{
	Name: "atomicsanity",
	Doc:  "package-level sync/atomic functions are banned; use the typed atomics, which cannot be accessed plainly",
	Run:  runAtomicSanity,
}

func runAtomicSanity(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if fn.Type().(*types.Signature).Recv() != nil {
				return true // typed-atomic method: safe by construction
			}
			pass.Reportf(sel.Pos(), "atomic.%s on a plain variable: every other access must be atomic too and nothing checks it; use a typed atomic (atomic.Int64, atomic.Pointer[T], …)", fn.Name())
			return true
		})
	}
}
