package lint

// HotPathAlloc statically enforces the zero-allocation serving promise
// that the AllocsPerRun tests (TestScalarZeroAllocSteady,
// TestWireZeroAllocSteady) only sample at runtime: no
// allocating construct may be reachable from the /estimate handler, the
// replica checkout/checkin path, batched inference, or the tracer's
// off/sampled bookkeeping. PR 4–6 bought the module model-owned scratch
// buffers, a recycled trace pool, and a channel free-list precisely so
// these paths never touch the garbage collector; this rule pins the
// property through every refactor by walking the call graph from the
// serving roots and flagging:
//
//   - make, new, growing append
//   - map/slice composite literals, and &T{...} (escaping construction)
//   - capturing closures and go statements
//   - fmt / encoding/json and a curated set of allocating stdlib calls
//   - interface boxing of non-pointer values (call args and assignments)
//   - non-constant string concatenation and string<->[]byte conversions
//
// Constructs inside panic(...) arguments are exempt: a panic is already
// the end of the request, and its message formatting may allocate.
//
// Suppression composes with the call graph: //lint:allow hotpathalloc on
// a call site cuts that edge (the callee runs on a sanctioned slow
// branch), and on a function declaration prunes the whole function (the
// heavyweight MSCN estimator allocates by design; the zero-alloc promise
// covers the LM serving configuration).
//
// Known approximations, both documented in DESIGN.md §13: calls through
// func-typed variables are invisible (under-approximation), and CHA
// interface fan-out visits implementations the runtime would never pick
// (over-approximation, answered with decl-level allows).

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

var HotPathAlloc = &Analyzer{
	Name:      "hotpathalloc",
	Doc:       "no allocating constructs reachable from the /estimate, checkout, inference, or tracer hot paths",
	Packages:  []string{"serve", "obs", "ce", "nn", "gbt", "kernel", "query", "wire"},
	RunModule: runHotPathAlloc,
}

// hotPathRoots are the serving entry points the zero-alloc promise
// covers, mirroring what those AllocsPerRun tests exercise: the HTTP estimate
// handler and the public Estimate method, replica checkout/checkin, the
// tracer paths every request pays, and batched inference.
var hotPathRoots = []string{
	"serve.(*Server).handleEstimate",
	"serve.(*Server).Estimate",
	"serve.(*Server).EstimateBudget",
	"serve.(*replicaPool).checkout",
	"serve.(*replicaPool).checkin",
	// The one estimate pipeline every entry point calls — the group
	// function (probe, pack, fill) and admission — and the cache's lookup
	// and insert under it; rooting them (in addition to reaching them
	// through Estimate) keeps the zero-alloc proof local to each stage.
	"serve.(*Server).estimateGroup",
	"serve.(*Server).admit",
	"serve.(*estimateCache).get",
	"serve.(*estimateCache).put",
	"obs.(*Tracer).Acquire",
	"obs.(*Trace).EnterStage",
	"obs.(*Tracer).Finish",
	"nn.(*Network).InferBatch",
	// The binary batch protocol: the handler, the group-serving loop, the
	// embeddable entry point, and the wire codec's decode/encode pair all
	// ride the same zero-alloc promise as the scalar /estimate path.
	"serve.(*Server).handleEstimateBatch",
	"serve.(*Server).serveWireBatch",
	"serve.(*Server).EstimateBatchWire",
	"wire.(*Buffer).DecodeBatch",
	"wire.(*Buffer).EncodeResponse",
}

// allocPkgs: every function in these packages allocates (or may), and
// none belongs on the hot path.
var allocPkgs = map[string]bool{
	"fmt":           true,
	"encoding/json": true,
	"reflect":       true,
	"regexp":        true,
}

// allocFuncs is the curated set of allocating stdlib functions outside
// allocPkgs, keyed by types.Func.FullName.
var allocFuncs = map[string]bool{
	"errors.New": true, "errors.Join": true,
	"strings.Repeat": true, "strings.Join": true, "strings.Split": true,
	"strings.SplitN": true, "strings.Fields": true, "strings.Replace": true,
	"strings.ReplaceAll": true, "strings.ToUpper": true, "strings.ToLower": true,
	"(*strings.Builder).String": true,
	"(*bytes.Buffer).String":    true,
	"bytes.NewBuffer":           true, "bytes.NewReader": true,
	"strconv.Itoa": true, "strconv.FormatInt": true, "strconv.FormatFloat": true,
	"strconv.Quote": true,
	"sort.Slice":    true, "sort.SliceStable": true,
	"time.After": true, "time.NewTimer": true, "time.NewTicker": true, "time.Tick": true,
	"context.WithCancel": true, "context.WithTimeout": true,
	"context.WithDeadline": true, "context.WithValue": true,
	"io.ReadAll": true, "os.ReadFile": true,
}

func runHotPathAlloc(mp *ModulePass) {
	g := mp.Graph
	visited := map[*CGNode]bool{}
	for _, rootName := range hotPathRoots {
		for _, root := range g.Named(rootName) {
			hotPathDFS(mp, root, rootName, visited)
		}
	}
}

// hotPathDFS walks reachable nodes, pruning decl-level allows and
// allowed call sites, and scans each body once for allocating constructs.
func hotPathDFS(mp *ModulePass, n *CGNode, path string, visited map[*CGNode]bool) {
	if visited[n] {
		return
	}
	visited[n] = true
	if mp.Allowed(n.Pos) {
		return // decl-level allow: the whole function is sanctioned
	}
	if n.Body != nil {
		scanAllocs(mp, n, path)
	}
	for _, e := range n.Out {
		if mp.Allowed(e.Pos) {
			continue // call-site allow: this edge is a sanctioned slow branch
		}
		next := path
		if !visited[e.Callee] {
			next = path + " → " + e.Callee.Name
		}
		hotPathDFS(mp, e.Callee, next, visited)
	}
}

// scanAllocs flags allocating constructs in n's own body, excluding
// nested function literals (separate nodes) and panic arguments.
func scanAllocs(mp *ModulePass, n *CGNode, path string) {
	info := n.Pkg.Info
	report := func(pos token.Pos, what string) {
		mp.Reportf(pos, "%s on the zero-alloc hot path (via %s)", what, path)
	}

	// panic(...) argument ranges are exempt: formatting a crash message
	// may allocate, and one line cannot carry two allow directives.
	var panicArgs [][2]token.Pos
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
				panicArgs = append(panicArgs, [2]token.Pos{call.Lparen, call.Rparen})
			}
		}
		return true
	})
	inPanic := func(pos token.Pos) bool {
		for _, r := range panicArgs {
			if r[0] <= pos && pos <= r[1] {
				return true
			}
		}
		return false
	}

	ast.Inspect(n.Body, func(x ast.Node) bool {
		if x == nil {
			return false
		}
		if inPanic(x.Pos()) {
			return false
		}
		switch v := x.(type) {
		case *ast.FuncLit:
			if caps := captures(info, v); len(caps) > 0 {
				report(v.Pos(), "closure capturing "+strings.Join(caps, ", ")+" allocates")
			}
			return false // the literal's body is scanned as its own node
		case *ast.GoStmt:
			report(v.Pos(), "go statement allocates a goroutine")
		case *ast.CallExpr:
			scanCallAlloc(mp, info, v, report)
		case *ast.CompositeLit:
			switch info.TypeOf(v).Underlying().(type) {
			case *types.Map:
				report(v.Pos(), "map literal allocates")
			case *types.Slice:
				report(v.Pos(), "slice literal allocates")
			}
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				if cl, ok := unparen(v.X).(*ast.CompositeLit); ok {
					if _, isStruct := info.TypeOf(cl).Underlying().(*types.Struct); isStruct {
						report(v.Pos(), "&composite literal escapes to the heap")
					}
				}
			}
		case *ast.BinaryExpr:
			if v.Op == token.ADD && isStringType(info.TypeOf(v)) && info.Types[v].Value == nil {
				// Flag only the outermost concat of a chain.
				report(v.Pos(), "non-constant string concatenation allocates")
				return false
			}
		case *ast.AssignStmt:
			scanBoxingAssign(info, v, report)
		}
		return true
	})
}

// scanCallAlloc flags allocation arising from one call expression:
// builtins, conversions, allocating stdlib callees, and interface boxing
// of arguments.
func scanCallAlloc(mp *ModulePass, info *types.Info, call *ast.CallExpr, report func(token.Pos, string)) {
	fun := unparen(call.Fun)

	// Conversions: only string <-> []byte/[]rune copies allocate.
	if tv, ok := info.Types[fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst, src := tv.Type, info.TypeOf(call.Args[0])
		if (isStringType(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStringType(src)) {
			report(call.Pos(), "string/[]byte conversion copies and allocates")
		}
		return
	}

	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				report(call.Pos(), "make allocates")
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				report(call.Pos(), "append may grow its backing array")
			}
			return
		}
	}

	var fn *types.Func
	switch f := fun.(type) {
	case *ast.Ident:
		fn, _ = info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[f.Sel].(*types.Func)
	}
	if fn != nil && fn.Pkg() != nil {
		if allocPkgs[fn.Pkg().Path()] || allocFuncs[fn.FullName()] {
			report(call.Pos(), fn.FullName()+" allocates")
			return
		}
	}

	// Interface boxing: a concrete non-pointer-shaped argument passed to
	// an interface parameter forces a heap copy.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis != token.NoPos {
				continue // f(xs...) passes the slice through, no per-arg boxing
			}
			param = sig.Params().At(sig.Params().Len() - 1).Type().(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(param) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) || boxFree(at) || isUntypedNil(info, arg) {
			continue
		}
		report(arg.Pos(), "interface boxing of "+at.String()+" allocates")
	}
}

// scanBoxingAssign flags assignments that box a concrete value into an
// interface-typed location.
func scanBoxingAssign(info *types.Info, as *ast.AssignStmt, report func(token.Pos, string)) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := info.TypeOf(lhs)
		if lt == nil || !types.IsInterface(lt) {
			continue
		}
		rt := info.TypeOf(as.Rhs[i])
		if rt == nil || types.IsInterface(rt) || boxFree(rt) || isUntypedNil(info, as.Rhs[i]) {
			continue
		}
		report(as.Rhs[i].Pos(), "interface boxing of "+rt.String()+" allocates")
	}
}

// captures lists variables a function literal closes over: objects used
// inside the literal but declared outside it, excluding package-level
// names and struct fields.
func captures(info *types.Info, lit *ast.FuncLit) []string {
	var out []string
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(x ast.Node) bool {
		id, ok := x.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level: no capture
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the literal (params, locals)
		}
		seen[v] = true
		out = append(out, v.Name())
		return true
	})
	return out
}

// boxFree reports whether values of t fit an interface's data word
// without allocating: pointer-shaped types.
func boxFree(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	}
	return false
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isUntypedNil(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.IsNil()
}
