package experiments

import (
	"sort"

	"warper/internal/adapt"
	"warper/internal/metrics"
)

// C2Result aggregates one c2 comparison: multiple adaptation methods run on
// identical arrivals, curves averaged over Scale.Runs repetitions.
type C2Result struct {
	Dataset   string
	TrainSpec string
	NewSpec   string
	Model     string
	DeltaM    float64
	DeltaJS   float64
	// MethodOrder preserves the requested method ordering.
	MethodOrder []string
	// Curves maps method name to its averaged adaptation curve.
	Curves map[string]*metrics.Curve
	// Annotations maps method name to mean extra annotations spent.
	Annotations map[string]float64
}

// Speedups returns (Δ.5, Δ.8, Δ1) of a method relative to the FT curve.
func (r *C2Result) Speedups(method string) (d50, d80, d100 float64) {
	ft, ok := r.Curves["FT"]
	if !ok {
		ft = r.Curves["RT"]
	}
	return metrics.SpeedupTriple(ft, r.Curves[method])
}

// RunC2 runs the standard c2 experiment: the model drifts from trainSpec to
// newSpec; every method consumes the same labeled arrivals period by period.
func RunC2(dsName, trainSpec, newSpec, model string, methodNames []string, sc Scale, seed int64) *C2Result {
	res := &C2Result{
		Dataset: dsName, TrainSpec: trainSpec, NewSpec: newSpec, Model: model,
		// A copy: the FT→RT rename below must not write through to the
		// caller's slice.
		MethodOrder: append([]string(nil), methodNames...),
		Curves:      map[string]*metrics.Curve{},
		Annotations: map[string]float64{},
	}
	aggs := map[string]*aggCurve{}
	for run := 0; run < sc.Runs; run++ {
		runSeed := seed + int64(run)*7919
		env := NewEnv(dsName, trainSpec, newSpec, model, sc, runSeed)
		res.DeltaM += env.DeltaM / float64(sc.Runs)
		res.DeltaJS += env.DeltaJS / float64(sc.Runs)
		periods := adapt.SplitPeriods(adapt.ArrivalsOf(env.Stream, true), sc.PeriodSize)
		runner := &adapt.Runner{Test: env.Test}
		for _, m := range env.Methods(methodNames, sc, runSeed+17) {
			aggs[m.Name()] = aggs[m.Name()].add(must(runner.Run(m, periods)))
			res.Annotations[m.Name()] += float64(m.AnnotationsSpent())
		}
	}
	for name, a := range aggs {
		res.Curves[name] = a.curve()
		res.Annotations[name] /= float64(sc.Runs)
	}
	// Normalize method names (FT may have reported as RT for re-train
	// models).
	if _, ok := res.Curves["FT"]; !ok {
		if _, ok := res.Curves["RT"]; ok {
			for i, n := range res.MethodOrder {
				if n == "FT" {
					res.MethodOrder[i] = "RT"
				}
			}
		}
	}
	return res
}

// CurveTable renders the averaged curves of a C2Result as one table: a row
// per evaluation point, a column per method (the Figure 6 / Figure 8 series).
func (r *C2Result) CurveTable(id, title string) *Table {
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
