package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// ObsNames enforces the metric-naming contract of the obs registry: every
// name registered through Registry.Counter/Gauge/Histogram, or declared with
// its help through their New* forms, must be snake_case, counters must end
// in _total, histograms must carry a unit suffix, and one name must keep one
// kind. The registry panics on a kind clash at runtime; this rule catches it
// — and the silent naming drift the registry cannot see — at lint time, so
// /metrics stays queryable by the dashboards the README documents.
//
// Gauges carry no mandatory suffix (a pool size or threshold has no unit),
// but still must be snake_case. Deliberate exceptions (e.g. a legacy name
// kept for a migration) use //lint:allow obsnames.
var ObsNames = &Analyzer{
	Name: "obsnames",
	Doc:  "obs metric names must be snake_case with a kind-appropriate unit suffix, one kind per name",
	Run:  runObsNames,
}

// metricSnakeRE matches lower_snake_case metric names.
var metricSnakeRE = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// histogramSuffixes are the unit suffixes a histogram name may end with.
var histogramSuffixes = []string{"_seconds", "_bytes", "_total", "_ratio", "_rows"}

// registeredKind remembers where a metric name was first registered and as
// what, for the one-kind-per-name check.
type registeredKind struct {
	kind string
	pos  token.Pos
}

func runObsNames(pass *Pass) {
	kinds := map[string]registeredKind{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			var kind string
			switch sel.Sel.Name {
			case "Counter", "NewCounter":
				kind = "counter"
			case "Gauge", "NewGauge":
				kind = "gauge"
			case "Histogram", "NewHistogram":
				kind = "histogram"
			default:
				return true
			}
			fn, ok := pass.Info.Uses[sel.Sel].(*types.Func)
			if !ok {
				return true
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv == nil || !isRegistryType(recv.Type()) {
				return true
			}
			// Only constant names are checkable; a computed name (none exist
			// in the tree today) is the caller's responsibility.
			tv, ok := pass.Info.Types[call.Args[0]]
			if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
				return true
			}
			name := constant.StringVal(tv.Value)
			pos := call.Args[0].Pos()

			if !metricSnakeRE.MatchString(name) {
				pass.Reportf(pos, "metric name %q is not snake_case", name)
				return true
			}
			switch kind {
			case "counter":
				if !strings.HasSuffix(name, "_total") {
					pass.Reportf(pos, "counter %q must end in _total", name)
				}
			case "histogram":
				if !hasAnySuffix(name, histogramSuffixes) {
					pass.Reportf(pos, "histogram %q must end in a unit suffix (%s)",
						name, strings.Join(histogramSuffixes, ", "))
				}
			}
			if prev, seen := kinds[name]; seen {
				if prev.kind != kind {
					pass.Reportf(pos, "metric %q registered as both %s and %s", name, prev.kind, kind)
				}
			} else {
				kinds[name] = registeredKind{kind: kind, pos: pos}
			}
			return true
		})
	}
}

// isRegistryType reports whether t is (a pointer to) a type named Registry —
// the obs registry, or a fixture standing in for it.
func isRegistryType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "Registry"
}

// hasAnySuffix reports whether s ends with any of the suffixes.
func hasAnySuffix(s string, suffixes []string) bool {
	for _, suf := range suffixes {
		if strings.HasSuffix(s, suf) {
			return true
		}
	}
	return false
}
