package experiments

import "fmt"

// fig6Methods is the method lineup of Figure 6.
var fig6Methods = []string{"FT", "MIX", "AUG", "HEM", "Warper"}

// datasets evaluated throughout §4.1.
var datasets = []string{"prsa", "poker", "higgs"}

// Fig6 regenerates Figure 6: adaptation curves (GMQ vs consumed queries) for
// the five methods on the three datasets under workload drift c2
// (w12 → w345) with LM-mlp.
func Fig6(sc Scale, seed int64) []*Table {
	var out []*Table
	for _, ds := range datasets {
		res := RunC2(ds, "w12", "w345", "lm-mlp", fig6Methods, sc, seed)
		out = append(out, res.CurveTable("Figure 6 ("+ds+")",
			fmt.Sprintf("GMQ vs new-workload queries, c2 w12/345, LM-mlp, %s (δm=%.1f δjs=%.2f)",
				ds, res.DeltaM, res.DeltaJS)))
	}
	return out
}

// Table7a regenerates Table 7a: Δ speedups for workload drift c2 with
// LM-mlp on the three datasets.
func Table7a(sc Scale, seed int64) []*Table {
	t := &Table{
		ID:     "Table 7a",
		Title:  "Workload drift (c2), w12/345, LM-mlp: Warper speedups vs FT",
		Header: deltaHeader,
	}
	for _, ds := range datasets {
		res := RunC2(ds, "w12", "w345", "lm-mlp", ftWarper, sc, seed)
		t.Rows = append(t.Rows, deltaRow(res, ds, "c2", "w12/345", "LM-mlp"))
	}
	return []*Table{t}
}

// table7bModels are the alternative CE models of Table 7b.
var table7bModels = []string{"lm-gbt", "lm-ply", "lm-rbf", "mscn"}

// Table7b regenerates Table 7b: Warper speedups for different CE models
// under the same c2 drift.
func Table7b(sc Scale, seed int64) []*Table {
	t := &Table{
		ID:     "Table 7b",
		Title:  "Different models, c2 w12/345: Warper speedups vs FT/RT",
		Header: deltaHeader,
	}
	for _, model := range table7bModels {
		for _, ds := range datasets {
			res := RunC2(ds, "w12", "w345", model, ftWarper, sc, seed)
			t.Rows = append(t.Rows, deltaRow(res, ds, "c2", "w12/345", model))
		}
	}
	return []*Table{t}
}

// table8Pairs are the PRSA workload-change pairs of Table 8.
var table8Pairs = [][2]string{
	{"w1", "w2"}, {"w1", "w3"}, {"w1", "w4"},
	{"w2", "w3"}, {"w2", "w4"},
	{"w5", "w3"}, {"w5", "w4"},
	{"w34", "w125"}, {"w35", "w124"}, {"w125", "w34"},
}

// Table8 regenerates Table 8: Warper speedups across ten workload-change
// pairs on PRSA.
func Table8(sc Scale, seed int64) []*Table {
	t := &Table{
		ID:     "Table 8",
		Title:  "Different workload changes on PRSA (c2, LM-mlp)",
		Header: []string{"Wkld", "δm", "δjs", "Δ.5", "Δ.8", "Δ1"},
	}
	for _, pair := range table8Pairs {
		res := RunC2("prsa", pair[0], pair[1], "lm-mlp", ftWarper, sc, seed)
		t.Rows = append(t.Rows, append([]string{pair[0] + "/" + pair[1], f1(res.DeltaM), f2(res.DeltaJS)}, res.deltaCells()...))
	}
	return []*Table{t}
}

// fig8Pairs are the adaptation-curve pairs shown in Figure 8.
var fig8Pairs = []struct {
	ds   string
	pair [2]string
}{
	{"prsa", [2]string{"w1", "w3"}},
	{"prsa", [2]string{"w2", "w4"}},
	{"prsa", [2]string{"w5", "w3"}},
	{"poker", [2]string{"w1", "w3"}},
	{"poker", [2]string{"w2", "w4"}},
	{"poker", [2]string{"w125", "w34"}},
}

// Fig8 regenerates Figure 8: adaptation curves for assorted workload pairs.
func Fig8(sc Scale, seed int64) []*Table {
	var out []*Table
	for _, c := range fig8Pairs {
		res := RunC2(c.ds, c.pair[0], c.pair[1], "lm-mlp", fig6Methods, sc, seed)
		out = append(out, res.CurveTable(
			fmt.Sprintf("Figure 8 (%s %s→%s)", c.ds, c.pair[0], c.pair[1]),
			fmt.Sprintf("GMQ vs queries, LM-mlp (δm=%.1f δjs=%.2f)", res.DeltaM, res.DeltaJS)))
	}
	return out
}

// Table10 regenerates Table 10: ablations replacing the picker ℙ (random)
// and the generator 𝔾 (AUG noise). The paper's third column, ℙ → entropy,
// needs the discriminator's confidence, which this implementation does not
// train.
func Table10(sc Scale, seed int64) []*Table {
	methods := []string{"FT", "Warper", "Warper:rnd", "Warper:augGen"}
	t := &Table{
		ID:     "Table 10",
		Title:  "Ablations: replacing learned Warper components (c2, w12/345, LM-mlp)",
		Header: []string{"Metric", "Dataset", "Warper", "P->rnd", "G->AUG"},
	}
	for _, ds := range []string{"prsa", "poker"} {
		res := RunC2(ds, "w12", "w345", "lm-mlp", methods, sc, seed)
		d8, d1 := []string{"Δ.8", ds}, []string{"Δ1", ds}
		for _, m := range methods[1:] {
			_, s8, s1 := res.Speedups(m)
			d8, d1 = append(d8, f1(s8)), append(d1, f1(s1))
		}
		t.Rows = append(t.Rows, d8, d1)
	}
	return []*Table{t}
}

// fig10Configs are the 𝔼/𝔾 structure variants of Figure 10.
var fig10Configs = []struct {
	hidden, depth int
}{
	{32, 2}, {64, 2}, {128, 2}, {64, 1}, {64, 3}, {128, 3},
}

// Fig10 regenerates Figure 10: sensitivity of the adaptation speedup to the
// 𝔼/𝔾 network width and depth.
func Fig10(sc Scale, seed int64) []*Table {
	t := &Table{
		ID:     "Figure 10",
		Title:  "NN hyperparameters in E and G (PRSA, c2 w12/345, LM-mlp)",
		Header: []string{"Hidden", "Depth", "Δ.5", "Δ.8", "Δ1"},
	}
	for _, cfg := range fig10Configs {
		s := sc
		s.Warper.Hidden = cfg.hidden
		s.Warper.Depth = cfg.depth
		res := RunC2("prsa", "w12", "w345", "lm-mlp", ftWarper, s, seed)
		t.Rows = append(t.Rows, append([]string{fmt.Sprint(cfg.hidden), fmt.Sprint(cfg.depth)}, res.deltaCells()...))
	}
	return []*Table{t}
}

// fig11Fractions are the generated-query budgets of Figure 11 / Table 11,
// as multiples of n_t.
var fig11Fractions = []float64{0.1, 0.3, 1.0, 3.0}

// Fig11 regenerates Figure 11: adaptation speedup as the number of
// generated queries n_g varies.
func Fig11(sc Scale, seed int64) []*Table {
	t := &Table{
		ID:     "Figure 11",
		Title:  "Trading compute for speedup: varying n_g (c2, w12/345, LM-mlp)",
		Header: []string{"Dataset", "n_g", "Δ.5", "Δ.8", "Δ1", "extra annotations"},
	}
	for _, ds := range []string{"prsa", "poker"} {
		for _, frac := range fig11Fractions {
			s := sc
			s.Warper.GenFraction = frac
			res := RunC2(ds, "w12", "w345", "lm-mlp", ftWarper, s, seed)
			row := append([]string{ds, fmt.Sprintf("%.1fx", frac)}, res.deltaCells()...)
			t.Rows = append(t.Rows, append(row, f1(res.Annotations["Warper"])))
		}
	}
	return []*Table{t}
}
