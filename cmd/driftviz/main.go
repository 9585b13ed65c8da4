// Command driftviz emits the 2-d PCA projections the paper uses to
// visualize predicate workloads (§2, Figures 1/5/7) as CSV on stdout:
// one row per predicate with its workload label and PCA coordinates.
//
// Usage:
//
//	driftviz -dataset prsa -workloads w1,w2,w3,w4,w5 -n 200 > points.csv
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"

	"warper/internal/dataset"
	"warper/internal/mathx"
	"warper/internal/query"
	"warper/internal/workload"
)

func main() {
	var (
		ds    = flag.String("dataset", "prsa", "dataset: higgs, prsa or poker")
		specs = flag.String("workloads", "w1,w2,w3,w4,w5", "comma-separated workload specs")
		n     = flag.Int("n", 200, "predicates per workload")
		rows  = flag.Int("rows", 6000, "dataset rows")
		seed  = flag.Int64("seed", 1, "random seed")
	)
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	tbl, err := dataset.ByName(*ds, *rows, rng)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sch := query.SchemaOf(tbl)
	opts := workload.Options{MinConstrained: 1, MaxConstrained: 2}

	type labeled struct {
		spec string
		pred query.Predicate
	}
	var all []labeled
	for _, spec := range strings.Split(*specs, ",") {
		spec = strings.TrimSpace(spec)
		g := workload.Parse(spec, tbl, sch, opts)
		for _, p := range workload.Generate(g, *n, rng) {
			all = append(all, labeled{spec, p})
		}
	}
	d := sch.FeatureDim()
	X := mathx.NewMatrix(len(all), d)
	for i, lp := range all {
		copy(X.Data[i*d:(i+1)*d], lp.pred.Featurize(sch))
	}
	pca := mathx.FitPCA(X, 2)

	fmt.Println("workload,x,y")
	for i, lp := range all {
		z := pca.Project(X.Row(i))
		fmt.Printf("%s,%.6f,%.6f\n", lp.spec, z[0], z[1])
	}
}
