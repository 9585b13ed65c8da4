package lint

import (
	"path/filepath"
	"reflect"
	"testing"
)

// edgeList renders a node's out-edges as "kind callee" strings, the
// golden form the fixture assertions compare against.
func edgeList(n *CGNode) []string {
	var out []string
	for _, e := range n.Out {
		out = append(out, e.Kind.String()+" "+e.Callee.Name)
	}
	return out
}

// TestCallGraphFixture pins edge construction over the callgraph/app
// fixture: recursion, CHA interface fan-out, method values, closures,
// in-place literal invocation, and go/defer as plain calls.
func TestCallGraphFixture(t *testing.T) {
	pkg := fixtureLoad(t, "callgraph/app")
	g := BuildCallGraph([]*Package{pkg})

	get := func(name string) *CGNode {
		t.Helper()
		ns := g.Named(name)
		if len(ns) != 1 {
			t.Fatalf("Named(%q) = %d nodes, want 1", name, len(ns))
		}
		return ns[0]
	}

	// Interface dispatch fans out to every implementation, name-sorted.
	if got, want := edgeList(get("app.Dispatch")), []string{
		"dynamic app.(*Hist).Estimate",
		"dynamic app.(*LM).Estimate",
	}; !reflect.DeepEqual(got, want) {
		t.Errorf("app.Dispatch edges = %v, want %v", got, want)
	}

	// Mutual recursion terminates and keeps both edges.
	if got, want := edgeList(get("app.Even")), []string{"call app.Odd"}; !reflect.DeepEqual(got, want) {
		t.Errorf("app.Even edges = %v, want %v", got, want)
	}
	if got, want := edgeList(get("app.Odd")), []string{"call app.Even"}; !reflect.DeepEqual(got, want) {
		t.Errorf("app.Odd edges = %v, want %v", got, want)
	}

	// Spawn: a spawned and a deferred call (plain call edges), method value
	// (CHA fan-out), closure, and an in-place invoked literal, in source
	// order.
	if got, want := edgeList(get("app.Spawn")), []string{
		"call app.worker",
		"call app.cleanup",
		"methodvalue app.(*Hist).Estimate",
		"methodvalue app.(*LM).Estimate",
		"closure app.Spawn$1",
		"call app.Spawn$2",
	}; !reflect.DeepEqual(got, want) {
		t.Errorf("app.Spawn edges = %v, want %v", got, want)
	}

	// The invoked literal is a real node with its own edges.
	if got, want := edgeList(get("app.Spawn$2")), []string{"call app.Dispatch"}; !reflect.DeepEqual(got, want) {
		t.Errorf("app.Spawn$2 edges = %v, want %v", got, want)
	}
}

// TestCallGraphModule builds the graph over the real module and checks
// the properties the hot-path rules depend on: every serving root
// resolves, and interface dispatch through ce.Estimator reaches the LM
// implementation from the estimate handler. Skipped in -short runs with
// the rest of the full-module loads.
func TestCallGraphModule(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load is slow under the source importer")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	g := BuildCallGraph(pkgs)

	for _, rootName := range hotPathRoots {
		if len(g.Named(rootName)) == 0 {
			t.Errorf("hot-path root %s has no node in the module graph", rootName)
		}
	}

	// BFS from the estimate handler must cross an interface dispatch into
	// the LM estimator.
	starts := g.Named("serve.(*Server).handleEstimate")
	if len(starts) == 0 {
		t.Fatal("no serve.(*Server).handleEstimate node")
	}
	seen := map[*CGNode]bool{}
	queue := append([]*CGNode{}, starts...)
	foundLM := false
	for len(queue) > 0 && !foundLM {
		n := queue[0]
		queue = queue[1:]
		if seen[n] {
			continue
		}
		seen[n] = true
		for _, e := range n.Out {
			if e.Kind == EdgeDynamic && e.Callee.Name == "ce.(*LM).Estimate" {
				foundLM = true
			}
			queue = append(queue, e.Callee)
		}
	}
	if !foundLM {
		t.Error("no dynamic-dispatch path from the estimate handler to ce.(*LM).Estimate")
	}
}
