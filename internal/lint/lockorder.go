package lint

// LockOrder is the module's lock discipline, checked over the call graph.
// Three properties:
//
//  1. Ordering. Every blocking Lock/RLock opens a region (to the matching
//     Unlock in the same statement list, or the end of the list for
//     deferred/implicit unlocks). Any mutex acquired inside the region —
//     directly, in a nested block, or transitively through module calls —
//     adds an edge held → acquired to a module-wide acquisition graph. A
//     cycle in that graph is a latent deadlock between serving and
//     observability locks, and is reported even when the two halves of
//     the inversion live in different packages.
//
//  2. Hygiene. PR 1 measured lock-wait as the dominant head-of-line
//     latency source and moved adaptation off the estimate lock via
//     clone/swap; this pins that property: inside internal/serve, no
//     model training/updating, no annotation, and no I/O may run in a
//     region — called there directly (depth 0), or reached through a
//     helper three frames down, in which case the diagnostic lands on the
//     call site under the lock.
//
//  3. Lock-free checkout. The checkout path — replicaPool methods and the
//     server's Estimate method — hands replicas over through the
//     free-list channel; any blocking Lock/RLock there reintroduces the
//     single-lock bottleneck the pool exists to remove.
//
// TryLock never opens a region — a non-blocking acquisition cannot
// deadlock, which is exactly why handlePeriod's period latch uses it and
// may span a full repair — and refreshMu, which serializes rare post-swap
// re-clones off the common path, is exempt from hygiene and from the
// checkout check (but not from ordering: a cycle through refreshMu is
// still a cycle). Goroutine and closure edges are followed
// conservatively: work spawned while a lock is held can run while it is
// held.

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

var LockOrder = &Analyzer{
	Name:      "lockorder",
	Doc:       "module-wide mutex acquisition graph must be cycle-free; no slow work under serve locks, directly or transitively; replica checkout stays lock-free",
	Packages:  []string{"serve", "obs"},
	RunModule: runLockOrder,
}

// lockEdge is one held → acquired observation with its acquisition site.
type lockEdge struct {
	from, to *types.Var
	pos      token.Pos
}

// lockOrderState carries the per-run memoization.
type lockOrderState struct {
	mp        *ModulePass
	g         *CallGraph
	summaries map[*CGNode][]*types.Var // locks acquired by node or callees
	inSummary map[*CGNode]bool
	slowMemo  map[*CGNode]string // transitive slow-work description, "" = none
	inSlow    map[*CGNode]bool
	edges     []lockEdge
	edgeSeen  map[[2]*types.Var]bool
	display   map[*types.Var]string
}

// slowMethods are module methods that train, retrain, or scan tables —
// work that must never run under the serving lock.
var slowMethods = map[string]bool{
	"Train": true, "Update": true, "TrainJoin": true, "UpdateJoin": true,
	"Period": true, "AnnotateAll": true,
}

// ioPackages whose calls count as I/O under a lock.
var ioPackages = map[string]bool{
	"os": true, "io": true, "net": true, "net/http": true, "bufio": true,
}

func runLockOrder(mp *ModulePass) {
	st := &lockOrderState{
		mp:        mp,
		g:         mp.Graph,
		summaries: map[*CGNode][]*types.Var{},
		inSummary: map[*CGNode]bool{},
		slowMemo:  map[*CGNode]string{},
		inSlow:    map[*CGNode]bool{},
		edgeSeen:  map[[2]*types.Var]bool{},
		display:   map[*types.Var]string{},
	}
	st.buildDisplayNames()
	for _, n := range st.g.Nodes() {
		if n.Body == nil {
			continue
		}
		st.scanRegions(n, n.Body.List, nil)
		if n.Obj != nil && n.Pkg.Types.Name() == "serve" && onCheckoutPath(n.Obj) {
			st.reportCheckoutLocks(n)
		}
	}
	st.reportCycles()
}

// onCheckoutPath reports whether fn belongs to the replica checkout hot
// path: any method on the replica pool, or the server's public Estimate.
func onCheckoutPath(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "replicaPool" || fn.Name() == "Estimate" && strings.EqualFold(name, "server")
}

// reportCheckoutLocks flags every blocking Lock/RLock in a checkout-path
// body. refreshMu is exempt by name, matching the sanctioned design.
func (st *lockOrderState) reportCheckoutLocks(n *CGNode) {
	ast.Inspect(n.Body, func(x ast.Node) bool {
		es, ok := x.(*ast.ExprStmt)
		if !ok {
			return true
		}
		_, kind := st.mutexCallKey(n, es)
		recv := mutexRecvText(es)
		if (kind == "Lock" || kind == "RLock") && !strings.Contains(recv, "refreshMu") {
			st.mp.Reportf(es.Pos(), "blocking %s of %s on the replica checkout path: hand replicas over the free-list channel instead", kind, recv)
		}
		return true
	})
}

// buildDisplayNames maps struct-field mutexes to pkg.Type.field names so
// diagnostics read the same from every acquisition site.
func (st *lockOrderState) buildDisplayNames() {
	for _, named := range st.g.named {
		s, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < s.NumFields(); i++ {
			f := s.Field(i)
			st.display[f] = fmt.Sprintf("%s.%s.%s", named.Obj().Pkg().Name(), named.Obj().Name(), f.Name())
		}
	}
}

func (st *lockOrderState) name(v *types.Var) string {
	if d, ok := st.display[v]; ok {
		return d
	}
	if v.Pkg() != nil {
		return v.Pkg().Name() + "." + v.Name()
	}
	return v.Name()
}

// scanRegions walks one statement list. held carries the lock keys open
// at this point (outer regions included). For every statement it records
// direct acquisitions and call-carried acquisitions against every held
// lock, and recurses into nested lists. A Lock opens a region scanned
// recursively with the key held; the outer loop resumes at the matching
// unlock so no statement is charged twice.
func (st *lockOrderState) scanRegions(n *CGNode, stmts []ast.Stmt, held []*types.Var) {
	for i := 0; i < len(stmts); i++ {
		stm := stmts[i]
		// Nested statement lists inherit the currently-held set; the
		// non-list parts (conditions, range operands) are charged here.
		switch v := stm.(type) {
		case *ast.BlockStmt:
			st.scanRegions(n, v.List, held)
			continue
		case *ast.IfStmt:
			if v.Init != nil {
				st.scanRegions(n, []ast.Stmt{v.Init}, held)
			}
			st.noteNodeCalls(n, v.Cond, held)
			st.scanRegions(n, v.Body.List, held)
			switch els := v.Else.(type) {
			case *ast.BlockStmt:
				st.scanRegions(n, els.List, held)
			case *ast.IfStmt:
				st.scanRegions(n, []ast.Stmt{els}, held)
			}
			continue
		case *ast.ForStmt:
			if v.Cond != nil {
				st.noteNodeCalls(n, v.Cond, held)
			}
			st.scanRegions(n, v.Body.List, held)
			continue
		case *ast.RangeStmt:
			st.noteNodeCalls(n, v.X, held)
			st.scanRegions(n, v.Body.List, held)
			continue
		case *ast.SwitchStmt:
			if v.Tag != nil {
				st.noteNodeCalls(n, v.Tag, held)
			}
			st.scanClauses(n, v.Body, held)
			continue
		case *ast.TypeSwitchStmt:
			st.scanClauses(n, v.Body, held)
			continue
		case *ast.SelectStmt:
			st.scanClauses(n, v.Body, held)
			continue
		case *ast.LabeledStmt:
			st.scanRegions(n, []ast.Stmt{v.Stmt}, held)
			continue
		}

		key, kind := st.mutexCallKey(n, stm)
		if kind == "Lock" || kind == "RLock" {
			// Direct acquisition while other locks are held.
			st.noteAcquire(n, key, stm.Pos(), held)
			// Open the region: to the matching unlock, else end of list.
			end := len(stmts)
			recvText := mutexRecvText(stm)
			for j := i + 1; j < len(stmts); j++ {
				if mutexRecvText(stmts[j]) == recvText {
					if _, k := st.mutexCallKey(n, stmts[j]); k == "Unlock" || k == "RUnlock" {
						end = j
						break
					}
				}
			}
			if key != nil {
				st.scanRegions(n, stmts[i+1:end], append(held[:len(held):len(held)], key))
				i = end - 1 // resume at the unlock; the region is charged
				continue
			}
		}

		st.noteNodeCalls(n, stm, held)
	}
}

// scanClauses scans each case/comm clause body of a switch or select.
func (st *lockOrderState) scanClauses(n *CGNode, body *ast.BlockStmt, held []*types.Var) {
	for _, cl := range body.List {
		switch c := cl.(type) {
		case *ast.CaseClause:
			st.scanRegions(n, c.Body, held)
		case *ast.CommClause:
			if c.Comm != nil {
				st.scanRegions(n, []ast.Stmt{c.Comm}, held)
			}
			st.scanRegions(n, c.Body, held)
		}
	}
}

// noteNodeCalls records, for every call under the node, the locks the
// callee transitively acquires (as ordering edges) and slow work the call
// is or reaches (as hygiene diagnostics, serve package only). Function
// literals invoked in place are followed; closures merely constructed here
// run elsewhere and are skipped — deferred unlock closures must not extend
// the region.
func (st *lockOrderState) noteNodeCalls(n *CGNode, node ast.Node, held []*types.Var) {
	if len(held) == 0 {
		return
	}
	ast.Inspect(node, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		var targets []*CGNode
		if lit, ok := unparen(call.Fun).(*ast.FuncLit); ok {
			if ln := st.g.LitNode(lit); ln != nil {
				targets = []*CGNode{ln}
			}
		} else {
			targets, _ = st.g.resolveTargets(n.Pkg, call.Fun)
		}
		for _, t := range targets {
			for _, lk := range st.lockSummary(t) {
				st.noteAcquire(n, lk, call.Pos(), held)
			}
		}
		st.noteHygiene(n, call, targets, held)
		return true
	})
}

// noteHygiene reports one call made while a serve lock is held when it is
// slow work itself or transitively reaches some through a resolved callee.
func (st *lockOrderState) noteHygiene(n *CGNode, call *ast.CallExpr, targets []*CGNode, held []*types.Var) {
	if n.Pkg.Types.Name() != "serve" || st.mp.Allowed(call.Pos()) {
		return
	}
	lock := ""
	for _, h := range held {
		// refreshMu is sanctioned: rare post-swap re-clone serialization.
		if name := st.name(h); !strings.Contains(name, "refreshMu") {
			lock = name
			break
		}
	}
	if lock == "" {
		return
	}
	if desc := slowCall(n.Pkg, call); desc != "" {
		st.mp.Reportf(call.Pos(), "%s under a held sync lock (%s): move slow work off the lock", desc, lock)
		return
	}
	for _, t := range targets {
		if desc := st.slowReach(t); desc != "" {
			st.mp.Reportf(call.Pos(), "call to %s transitively reaches %s while %s is held: move slow work off the lock",
				t.Name, desc, lock)
			return
		}
	}
}

// noteAcquire records held → key edges.
func (st *lockOrderState) noteAcquire(n *CGNode, key *types.Var, pos token.Pos, held []*types.Var) {
	if key == nil || st.mp.Allowed(pos) {
		return
	}
	for _, h := range held {
		k := [2]*types.Var{h, key}
		if st.edgeSeen[k] {
			continue
		}
		st.edgeSeen[k] = true
		st.edges = append(st.edges, lockEdge{from: h, to: key, pos: pos})
	}
}

// lockSummary returns every lock key n or its transitive callees acquire
// via blocking Lock/RLock, memoized, cycle-safe.
func (st *lockOrderState) lockSummary(n *CGNode) []*types.Var {
	if s, ok := st.summaries[n]; ok {
		return s
	}
	if st.inSummary[n] {
		return nil
	}
	st.inSummary[n] = true
	defer delete(st.inSummary, n)
	seen := map[*types.Var]bool{}
	var acc []*types.Var
	add := func(v *types.Var) {
		if v != nil && !seen[v] {
			seen[v] = true
			acc = append(acc, v)
		}
	}
	if n.Body != nil {
		ast.Inspect(n.Body, func(x ast.Node) bool {
			if _, ok := x.(*ast.FuncLit); ok {
				return false // separate node, reached through its edge below
			}
			es, ok := x.(*ast.ExprStmt)
			if !ok {
				return true
			}
			if key, kind := st.mutexCallKey(n, es); kind == "Lock" || kind == "RLock" {
				add(key)
			}
			return true
		})
	}
	for _, e := range n.Out {
		for _, v := range st.lockSummary(e.Callee) {
			add(v)
		}
	}
	st.summaries[n] = acc
	return acc
}

// slowReach returns a description of slow work (training methods,
// annotation, I/O packages) reachable from n, or "".
func (st *lockOrderState) slowReach(n *CGNode) string {
	if d, ok := st.slowMemo[n]; ok {
		return d
	}
	if st.inSlow[n] {
		return ""
	}
	st.inSlow[n] = true
	defer delete(st.inSlow, n)
	desc := directSlowCall(n)
	if desc == "" {
		for _, e := range n.Out {
			if d := st.slowReach(e.Callee); d != "" {
				desc = d + " (via " + e.Callee.Name + ")"
				break
			}
		}
	}
	st.slowMemo[n] = desc
	return desc
}

// directSlowCall scans n's own body for slow work: the first call there
// that slowCall names, or "".
func directSlowCall(n *CGNode) string {
	if n.Body == nil {
		return ""
	}
	out := ""
	ast.Inspect(n.Body, func(x ast.Node) bool {
		if out != "" {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok {
			out = slowCall(n.Pkg, call)
		}
		return true
	})
	return out
}

// slowCall names the call when it is slow work itself — an I/O package
// function, or a training/annotation method of a module type (a same-named
// method on a stdlib type is fine) — and returns "" otherwise.
func slowCall(pkg *Package, call *ast.CallExpr) string {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	if fn.Type().(*types.Signature).Recv() == nil {
		if ioPackages[fn.Pkg().Path()] {
			return fn.Pkg().Name() + "." + fn.Name()
		}
		return ""
	}
	isModule := strings.Contains(fn.Pkg().Path(), "/") || fn.Pkg().Path() == pkg.Types.Path()
	if isModule && (slowMethods[fn.Name()] || fn.Name() == "Count" && strings.HasSuffix(fn.Pkg().Path(), "/annotator")) {
		return types.ExprString(sel.X) + "." + fn.Name()
	}
	return ""
}

// mutexCallKey resolves a plain `x.Lock()`-shaped statement to the mutex
// variable it locks and the method name. TryLock is reported as its own
// kind and never opens a region.
func (st *lockOrderState) mutexCallKey(n *CGNode, stm ast.Stmt) (*types.Var, string) {
	es, ok := stm.(*ast.ExprStmt)
	if !ok {
		return nil, ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	fn, ok := n.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, ""
	}
	return varOf(n.Pkg.Info, unparen(sel.X)), fn.Name()
}

// varOf resolves an expression to the variable it names: a struct field
// via selector, or a plain variable via identifier.
func varOf(info *types.Info, e ast.Expr) *types.Var {
	switch n := e.(type) {
	case *ast.SelectorExpr:
		if sel := info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
			if v, ok := sel.Obj().(*types.Var); ok {
				return v
			}
		}
		if v, ok := info.Uses[n.Sel].(*types.Var); ok {
			return v
		}
	case *ast.Ident:
		if v, ok := info.Uses[n].(*types.Var); ok {
			return v
		}
	}
	return nil
}

// mutexRecvText renders the receiver of a mutex-method statement, for
// matching Lock to its Unlock and for naming it in diagnostics.
func mutexRecvText(stm ast.Stmt) string {
	es, ok := stm.(*ast.ExprStmt)
	if !ok {
		return ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return types.ExprString(sel.X)
}

// reportCycles finds strongly connected components of the acquisition
// graph and reports each cycle once, at its lexicographically-first
// edge's site.
func (st *lockOrderState) reportCycles() {
	if len(st.edges) == 0 {
		return
	}
	adj := map[*types.Var][]lockEdge{}
	for _, e := range st.edges {
		adj[e.from] = append(adj[e.from], e)
	}
	for v := range adj {
		sort.Slice(adj[v], func(i, j int) bool { return st.name(adj[v][i].to) < st.name(adj[v][j].to) })
	}
	// Order roots deterministically by display name.
	var roots []*types.Var
	for v := range adj {
		roots = append(roots, v)
	}
	sort.Slice(roots, func(i, j int) bool { return st.name(roots[i]) < st.name(roots[j]) })

	reported := map[string]bool{}
	var path []lockEdge
	onPath := map[*types.Var]bool{}
	var dfs func(v *types.Var)
	dfs = func(v *types.Var) {
		if len(path) > 32 {
			return // depth cap; module lock graphs are tiny
		}
		onPath[v] = true
		for _, e := range adj[v] {
			if onPath[e.to] {
				// Extract the cycle from the path suffix starting at e.to.
				var cyc []lockEdge
				for i := 0; i < len(path); i++ {
					if path[i].from == e.to {
						cyc = append(cyc, path[i:]...)
						break
					}
				}
				cyc = append(cyc, e)
				st.reportCycle(cyc, reported)
				continue
			}
			path = append(path, e)
			dfs(e.to)
			path = path[:len(path)-1]
		}
		delete(onPath, v)
	}
	for _, r := range roots {
		dfs(r)
	}
}

// reportCycle renders one cycle, canonicalized so each distinct cycle is
// reported exactly once regardless of discovery order.
func (st *lockOrderState) reportCycle(cyc []lockEdge, reported map[string]bool) {
	if len(cyc) == 0 {
		return
	}
	// Rotate so the lexicographically-smallest lock name leads.
	lead := 0
	for i := range cyc {
		if st.name(cyc[i].from) < st.name(cyc[lead].from) {
			lead = i
		}
	}
	rot := append(append([]lockEdge{}, cyc[lead:]...), cyc[:lead]...)
	var b strings.Builder
	for i, e := range rot {
		if i > 0 {
			b.WriteString(" → ")
		}
		b.WriteString(st.name(e.from))
	}
	b.WriteString(" → ")
	b.WriteString(st.name(rot[0].from))
	key := b.String()
	if reported[key] {
		return
	}
	reported[key] = true
	st.mp.Reportf(rot[0].pos, "lock acquisition cycle %s is a latent deadlock: acquire these locks in one global order", key)
}
