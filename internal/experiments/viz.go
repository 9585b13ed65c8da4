package experiments

import (
	"fmt"
	"math/rand"

	"warper/internal/adapt"
	"warper/internal/mathx"
	"warper/internal/pool"
	"warper/internal/query"
	"warper/internal/workload"
)

// projectPreds fits a 2-d PCA over all groups' featurized predicates (the §2
// visualization method) and returns per-group 2-d coordinates.
func projectPreds(groups map[string][]query.Predicate, sch *query.Schema) map[string][][2]float64 {
	d := sch.FeatureDim()
	var all []query.Predicate
	for _, ps := range groups {
		all = append(all, ps...)
	}
	X := mathx.NewMatrix(len(all), d)
	for i, p := range all {
		copy(X.Data[i*d:(i+1)*d], p.Featurize(sch))
	}
	pca := mathx.FitPCA(X, 2)
	out := make(map[string][][2]float64, len(groups))
	for name, ps := range groups {
		coords := make([][2]float64, len(ps))
		for i, p := range ps {
			z := pca.Project(p.Featurize(sch))
			coords[i] = [2]float64{z[0], z[1]}
		}
		out[name] = coords
	}
	return out
}

// summarizeCloud reduces a 2-d point cloud to its centroid and spread for a
// compact textual rendering of the scatter plots.
func summarizeCloud(pts [][2]float64) (cx, cy, sx, sy float64) {
	if len(pts) == 0 {
		return 0, 0, 0, 0
	}
	xs := make(mathx.Vector, len(pts))
	ys := make(mathx.Vector, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p[0], p[1]
	}
	return xs.Mean(), ys.Mean(), xs.Std(), ys.Std()
}

// Fig5 regenerates Figure 5: PCA visualizations of the w1–w5 workloads on
// PRSA. Each row summarizes one workload's 2-d point cloud (centroid and
// spread); the cmd/driftviz tool emits the raw per-point CSV.
func Fig5(sc Scale, seed int64) []*Table {
	rng := rand.New(rand.NewSource(seed))
	tbl := datasetByName("prsa", sc.Rows, rng)
	sch := query.SchemaOf(tbl)
	groups := map[string][]query.Predicate{}
	for _, spec := range []string{"w1", "w2", "w3", "w4", "w5"} {
		g := workload.New(spec, tbl, sch, wkldOpts)
		groups[spec] = workload.Generate(g, 200, rng)
	}
	proj := projectPreds(groups, sch)
	t := &Table{
		ID:     "Figure 5",
		Title:  "PCA visualization of workloads on PRSA (per-cloud centroid ± spread)",
		Header: []string{"Workload", "centroid x", "centroid y", "spread x", "spread y"},
	}
	for _, spec := range []string{"w1", "w2", "w3", "w4", "w5"} {
		cx, cy, sx, sy := summarizeCloud(proj[spec])
		t.Rows = append(t.Rows, []string{spec, f3(cx), f3(cy), f3(sx), f3(sy)})
	}
	return []*Table{t}
}

// Fig7 regenerates Figure 7: during a c2 adaptation on PRSA, the generated
// (gen) and picked queries should track the incoming (new) distribution
// rather than the training one. Rows report centroid distances in PCA space.
func Fig7(sc Scale, seed int64) []*Table {
	env := NewEnv("prsa", "w12", "w345", "lm-mlp", sc, seed)
	ad := env.NewWarperAdapter(sc, seed+17)
	periods := adapt.SplitPeriods(adapt.ArrivalsOf(env.Stream, true), sc.PeriodSize)
	for _, p := range periods {
		must(ad.Period(p))
	}
	groups := map[string][]query.Predicate{}
	for _, e := range ad.Pool.Entries {
		switch e.Source {
		case pool.SrcTrain:
			groups["train"] = append(groups["train"], e.Pred)
		case pool.SrcNew:
			groups["new"] = append(groups["new"], e.Pred)
		case pool.SrcGen:
			groups["gen"] = append(groups["gen"], e.Pred)
		}
	}
	proj := projectPreds(groups, env.Sch)
	t := &Table{
		ID:     "Figure 7",
		Title:  "Adaptation visualization on PRSA (c2, w12/345): cloud centroids in PCA space",
		Header: []string{"Group", "n", "centroid x", "centroid y", "spread x", "spread y", "dist to new centroid"},
	}
	nx, ny, _, _ := summarizeCloud(proj["new"])
	for _, name := range []string{"train", "new", "gen"} {
		cx, cy, sx, sy := summarizeCloud(proj[name])
		dx, dy := cx-nx, cy-ny
		dist := mathx.Vector{dx, dy}.Norm()
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(len(proj[name])), f3(cx), f3(cy), f3(sx), f3(sy), f3(dist),
		})
	}
	return []*Table{t}
}
