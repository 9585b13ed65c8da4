package experiments

import (
	"sort"

	"warper/internal/adapt"
	"warper/internal/metrics"
	"warper/internal/query"
	"warper/internal/warper"
)

// Comparison aggregates one comparison: adaptation methods run on identical
// inputs, their curves aggregated over Scale.Runs repetitions. Tables 7a–7d,
// 8 and 10 and Figures 6, 8, 10 and 11 read it.
type Comparison struct {
	DeltaM  float64
	DeltaJS float64
	// MethodOrder preserves the requested method ordering.
	MethodOrder []string
	// Curves maps method name to its aggregated adaptation curve.
	Curves map[string]*metrics.Curve
	// Annotations maps method name to mean extra annotations spent.
	Annotations map[string]float64
	// Modes counts the Warper method's periods by detected drift mode, over
	// every repetition.
	Modes map[warper.Mode]int
}

// trial is one repetition of a comparison: the drift it measured, per
// method in the comparison's order its curve and extra annotations, and the
// Warper method's period modes.
type trial struct {
	deltaM, deltaJS float64
	curves          []*metrics.Curve
	spent           []int
	modes           []warper.Mode
}

// run drives every method through the same periods with adapt.Runner and
// records what the trial keeps of each.
func (t *trial) run(methods []adapt.Method, periods [][]warper.Arrival, test []query.Labeled) {
	runner := &adapt.Runner{Test: test}
	for _, m := range methods {
		t.curves = append(t.curves, must(runner.Run(m, periods)))
		t.spent = append(t.spent, m.AnnotationsSpent())
		if w, ok := m.(*adapt.WarperMethod); ok {
			for _, rep := range w.Reports {
				t.modes = append(t.modes, rep.Detection.Mode)
			}
		}
	}
}

// compare is the one comparison loop: repetition r runs with seed
// seed + r·stride, and the repetitions' drift metrics are averaged and
// their curves aggregated per method.
func compare(sc Scale, seed, stride int64, methods []string, run func(seed int64) trial) *Comparison {
	res := &Comparison{
		MethodOrder: methods,
		Curves:      map[string]*metrics.Curve{},
		Annotations: map[string]float64{},
		Modes:       map[warper.Mode]int{},
	}
	aggs := make([]*aggCurve, len(methods))
	for r := 0; r < sc.Runs; r++ {
		t := run(seed + int64(r)*stride)
		res.DeltaM += t.deltaM / float64(sc.Runs)
		res.DeltaJS += t.deltaJS / float64(sc.Runs)
		for i, c := range t.curves {
			aggs[i] = aggs[i].add(c)
		}
		for i, n := range t.spent {
			res.Annotations[methods[i]] += float64(n)
		}
		for _, m := range t.modes {
			res.Modes[m]++
		}
	}
	for i, name := range methods {
		res.Curves[name] = aggs[i].curve()
		res.Annotations[name] /= float64(sc.Runs)
	}
	return res
}

// Speedups returns (Δ.5, Δ.8, Δ1) of a method relative to the FT curve.
func (r *Comparison) Speedups(method string) (d50, d80, d100 float64) {
	return metrics.SpeedupTriple(r.Curves["FT"], r.Curves[method])
}

// RunC2 runs the standard c2 experiment: the model drifts from trainSpec to
// newSpec; every method consumes the same labeled arrivals period by period.
func RunC2(dsName, trainSpec, newSpec, model string, methodNames []string, sc Scale, seed int64) *Comparison {
	return compare(sc, seed, 7919, methodNames, func(runSeed int64) (t trial) {
		env := NewEnv(dsName, trainSpec, newSpec, model, sc, runSeed)
		t.deltaM, t.deltaJS = env.DeltaM, env.DeltaJS
		periods := adapt.SplitPeriods(adapt.ArrivalsOf(env.Stream, true), sc.PeriodSize)
		t.run(env.Methods(methodNames, sc, sc.gamma(), runSeed+17), periods, env.Test)
		return t
	})
}

// ftWarper is the lineup of every two-method comparison: Warper against FT.
var ftWarper = []string{"FT", "Warper"}

// deltaHeader and deltaRow are the one row format of Tables 7a–7d: the
// drift setting, its δ_m and δ_js, then Warper's Δ speedups over FT.
var deltaHeader = []string{"Dataset", "Cs", "Wkld", "Model", "δm", "δjs", "Δ.5", "Δ.8", "Δ1"}

func deltaRow(r *Comparison, ds, cs, wkld, model string) []string {
	return append([]string{ds, cs, wkld, model, f1(r.DeltaM), f2(r.DeltaJS)}, r.deltaCells()...)
}

// deltaCells renders Warper's Δ.5, Δ.8 and Δ1 over FT.
func (r *Comparison) deltaCells() []string {
	d5, d8, d1 := r.Speedups("Warper")
	return []string{f1(d5), f1(d8), f1(d1)}
}

// CurveTable renders the aggregated curves of a Comparison as one table: a
// row per evaluation point, a column per method (the Figure 6 / Figure 8
// series).
func (r *Comparison) CurveTable(id, title string) *Table {
	t := &Table{ID: id, Title: title}
	t.Header = append([]string{"#queries"}, r.MethodOrder...)
	// All curves share the same x grid.
	ref := r.Curves[r.MethodOrder[0]]
	for i := 0; i < ref.Len(); i++ {
		row := []string{f1(ref.Queries[i])}
		for _, name := range r.MethodOrder {
			row = append(row, f2(r.Curves[name].GMQ[i]))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// aggCurve accumulates one method's curves pointwise across repetitions.
// Curves from different repetitions may have slightly different x grids
// (annotation counts); the aggregate keeps the first one's grid and takes
// the pointwise median by point index (robust to one divergent repetition
// dominating the mean).
type aggCurve struct {
	xs     []float64
	points [][]float64
}

func (a *aggCurve) add(c *metrics.Curve) *aggCurve {
	if a == nil {
		a = &aggCurve{xs: append([]float64(nil), c.Queries...), points: make([][]float64, c.Len())}
	}
	for i := 0; i < len(a.points) && i < c.Len(); i++ {
		a.points[i] = append(a.points[i], c.GMQ[i])
	}
	return a
}

// curve is the aggregate: the pointwise median, then a temporal median
// filter that keeps single-point noise dips from winning λ-target crossings.
func (a *aggCurve) curve() *metrics.Curve {
	out := &metrics.Curve{}
	for i := range a.points {
		out.Append(a.xs[i], median(a.points[i]))
	}
	return out.MedianSmooth(3)
}

// median returns the middle value (mean of the two middles for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
