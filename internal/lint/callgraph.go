package lint

// This file builds a module-wide call graph over the loaded packages so
// analyzers can check transitive properties — "no allocation reachable
// from the estimate handler", "no module lock taken under another" — that
// per-package AST walks cannot see.
//
// Resolution is CHA-style (class hierarchy analysis) over go/types:
//
//   - direct calls and method calls on concrete receivers resolve to the
//     single declared function;
//   - interface method calls fan out to that method on every module named
//     type whose method set satisfies the interface (types.Implements),
//     which over-approximates the dynamic targets but never misses one
//     that lives in this module;
//   - method values (s.handleEstimate passed as a handler) and method
//     expressions get edges with the same resolution, since the method
//     may run later from anywhere the value flows;
//   - function literals are first-class nodes with an edge from their
//     enclosing function, whether invoked in place or built and passed
//     around; go f(...) and defer f(...) are calls like any other.
//
// Known holes, deliberate for a stdlib-only analyzer: calls through
// func-typed variables and struct fields are unresolved (no edge), and
// package-level variable initializers have no node. Rules that rely on
// the graph document which side of over/under-approximation they sit on.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// A CGEdge is one outgoing call edge.
type CGEdge struct {
	Callee *CGNode
	Pos    token.Pos // call or reference site
}

// A CGNode is one function in the graph: a declared function or method
// (Obj set) or a function literal (Lit set).
type CGNode struct {
	// Name is the stable display name: pkgname.Func,
	// pkgname.(*Recv).Method, pkgname.Recv.Method, or parent$n for the
	// n-th function literal inside parent.
	Name string
	Obj  *types.Func
	Lit  *ast.FuncLit
	Pkg  *Package
	Body *ast.BlockStmt // nil for body-less (assembly-backed) declarations
	Pos  token.Pos      // declaration site, where decl-level //lint:allow applies
	Out  []CGEdge
}

// A CallGraph is the module-wide graph plus the indexes rules query.
type CallGraph struct {
	Fset *token.FileSet
	Pkgs []*Package

	funcs  map[*types.Func]*CGNode
	lits   map[*ast.FuncLit]*CGNode
	byName map[string][]*CGNode
	nodes  []*CGNode

	// named holds every non-interface named type in the module, the CHA
	// universe; chaCache memoizes per (interface, method) fan-outs.
	named    []*types.Named
	chaCache map[chaKey][]*CGNode
}

type chaKey struct {
	iface  *types.Interface
	method string
}

// BuildCallGraph constructs the graph over the loaded packages. Node and
// edge order is deterministic: declaration order within files, sorted
// package order as loaded, and name-sorted CHA fan-outs.
func BuildCallGraph(pkgs []*Package) *CallGraph {
	g := &CallGraph{
		Pkgs:     pkgs,
		funcs:    map[*types.Func]*CGNode{},
		lits:     map[*ast.FuncLit]*CGNode{},
		byName:   map[string][]*CGNode{},
		chaCache: map[chaKey][]*CGNode{},
	}
	if len(pkgs) > 0 {
		g.Fset = pkgs[0].Fset
	}
	// Pass 1: index declared functions and the CHA type universe.
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			g.named = append(g.named, named)
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := &CGNode{
					Name: funcDisplayName(fn),
					Obj:  fn,
					Pkg:  pkg,
					Body: fd.Body,
					Pos:  fd.Pos(),
				}
				g.funcs[fn] = n
				g.byName[n.Name] = append(g.byName[n.Name], n)
				g.nodes = append(g.nodes, n)
			}
		}
	}
	// Pass 2: edges (function literals are discovered and walked here).
	for _, n := range g.nodes[:len(g.nodes):len(g.nodes)] {
		if n.Body != nil {
			g.walk(n, n.Body)
		}
	}
	return g
}

// LitNode returns the node for a function literal, or nil.
func (g *CallGraph) LitNode(lit *ast.FuncLit) *CGNode { return g.lits[lit] }

// Named returns every node with the given display name. Real module code
// yields one node; fixtures that mirror package names may add more.
func (g *CallGraph) Named(name string) []*CGNode { return g.byName[name] }

// Nodes returns every node, name-sorted for deterministic iteration.
func (g *CallGraph) Nodes() []*CGNode {
	out := append([]*CGNode(nil), g.nodes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Pos < out[j].Pos
	})
	return out
}

// walk adds the edges out of n, whose body statements live in root.
// Nested function literals become their own nodes and are walked
// recursively; the outer walk does not descend into them.
func (g *CallGraph) walk(n *CGNode, root *ast.BlockStmt) {
	pkg := n.Pkg
	info := pkg.Info

	// First pass: which expressions are call Funs.
	callFun := map[ast.Expr]bool{}
	ast.Inspect(root, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			callFun[unparen(v.Fun)] = true
		}
		return true
	})

	ast.Inspect(root, func(x ast.Node) bool {
		switch v := x.(type) {
		case *ast.FuncLit:
			child := g.litNode(n, v)
			n.Out = append(n.Out, CGEdge{Callee: child, Pos: v.Pos()})
			g.walk(child, v.Body)
			return false
		case *ast.CallExpr:
			if _, ok := unparen(v.Fun).(*ast.FuncLit); ok {
				return true // edge added by the FuncLit case
			}
			for _, t := range g.resolveTargets(pkg, v.Fun) {
				n.Out = append(n.Out, CGEdge{Callee: t, Pos: v.Pos()})
			}
			return true
		case *ast.SelectorExpr:
			if callFun[v] {
				return true // handled as a call
			}
			sel := info.Selections[v]
			if sel == nil || (sel.Kind() != types.MethodVal && sel.Kind() != types.MethodExpr) {
				return true
			}
			for _, t := range g.resolveTargets(pkg, v) {
				n.Out = append(n.Out, CGEdge{Callee: t, Pos: v.Pos()})
			}
			return true
		}
		return true
	})
}

// litNode creates (or returns) the node for a function literal nested in
// parent, named parent$1, parent$2, … in source order.
func (g *CallGraph) litNode(parent *CGNode, lit *ast.FuncLit) *CGNode {
	if n, ok := g.lits[lit]; ok {
		return n
	}
	seq := 1
	for _, e := range parent.Out {
		if e.Callee.Lit != nil {
			seq++
		}
	}
	n := &CGNode{
		Name: fmt.Sprintf("%s$%d", parent.Name, seq),
		Lit:  lit,
		Pkg:  parent.Pkg,
		Body: lit.Body,
		Pos:  lit.Pos(),
	}
	g.lits[lit] = n
	g.byName[n.Name] = append(g.byName[n.Name], n)
	g.nodes = append(g.nodes, n)
	return n
}

// resolveTargets resolves a call/reference expression to module nodes: one
// node, or a CHA fan-out for interface dispatch.
func (g *CallGraph) resolveTargets(pkg *Package, fun ast.Expr) []*CGNode {
	info := pkg.Info
	switch v := unparen(fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[v].(*types.Func); ok {
			if n := g.funcs[fn]; n != nil {
				return []*CGNode{n}
			}
		}
	case *ast.SelectorExpr:
		sel := info.Selections[v]
		if sel == nil {
			// Package-qualified call: pkg.Fn.
			if fn, ok := info.Uses[v.Sel].(*types.Func); ok {
				if n := g.funcs[fn]; n != nil {
					return []*CGNode{n}
				}
			}
			return nil
		}
		if sel.Kind() != types.MethodVal && sel.Kind() != types.MethodExpr {
			return nil // func-typed field: unresolved
		}
		recv := sel.Recv()
		if sel.Kind() == types.MethodExpr {
			// T.Method: the receiver type is the first param's type.
			if sig, ok := sel.Type().(*types.Signature); ok && sig.Params().Len() > 0 {
				recv = sig.Params().At(0).Type()
			}
		}
		if iface, ok := recv.Underlying().(*types.Interface); ok {
			return g.cha(iface, v.Sel.Name)
		}
		if fn, ok := sel.Obj().(*types.Func); ok {
			if n := g.funcs[fn]; n != nil {
				return []*CGNode{n}
			}
		}
	case *ast.IndexExpr:
		return g.resolveTargets(pkg, v.X) // generic instantiation
	}
	return nil
}

// cha returns the node for method name on every module named type whose
// method set (value or pointer) satisfies iface, name-sorted.
func (g *CallGraph) cha(iface *types.Interface, name string) []*CGNode {
	key := chaKey{iface, name}
	if out, ok := g.chaCache[key]; ok {
		return out
	}
	var out []*CGNode
	seen := map[*CGNode]bool{}
	for _, named := range g.named {
		var recv types.Type = named
		if !types.Implements(named, iface) {
			if !types.Implements(types.NewPointer(named), iface) {
				continue
			}
			recv = types.NewPointer(named)
		}
		obj, _, _ := types.LookupFieldOrMethod(recv, true, named.Obj().Pkg(), name)
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := g.funcs[fn]; n != nil && !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	g.chaCache[key] = out
	return out
}

// funcDisplayName renders a stable pkgname-qualified name for a declared
// function: pkg.Func, pkg.Recv.Method, or pkg.(*Recv).Method.
func funcDisplayName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Name()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	t := sig.Recv().Type()
	ptr := false
	if p, ok := t.(*types.Pointer); ok {
		ptr = true
		t = p.Elem()
	}
	recv := "?"
	if n, ok := t.(*types.Named); ok {
		recv = n.Obj().Name()
	}
	if ptr {
		return fmt.Sprintf("%s.(*%s).%s", pkg, recv, fn.Name())
	}
	return fmt.Sprintf("%s.%s.%s", pkg, recv, fn.Name())
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}
