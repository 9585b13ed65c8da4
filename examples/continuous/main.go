// Continuous drifts: Warper adapting periodically while the workload and
// data keep changing (the Figure 2 shapes — short-lived drifts, persistent
// drifts, and a combined data+workload drift), with det_drft classifying
// each period.
//
// Run with: go run ./examples/continuous
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/warper"
	"warper/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(3))
	tbl := dataset.PRSA(6000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	opts := workload.Options{MinConstrained: 1, MaxConstrained: 2}

	w1 := workload.New("w1", tbl, sch, opts)
	w4 := workload.New("w4", tbl, sch, opts)

	train := must1(ann.AnnotateAll(context.Background(), workload.Generate(w1, 600, rng)))
	model := ce.NewLM(ce.LMMLP, sch, 1)
	must(model.Train(train))

	cfg := warper.DefaultConfig()
	cfg.Hidden = 64
	cfg.Depth = 2
	cfg.Gamma = 200
	adapter := must1(warper.New(cfg, model, sch, ann, train))

	// A drift schedule in the shape of Figure 2(c): stable, a short-lived
	// workload drift, back to stable, then a combined data+workload drift.
	// onEnter, if set, mutates the table as its phase begins.
	phases := []struct {
		gen     workload.Generator
		periods int
		onEnter func()
	}{
		{gen: w1, periods: 2},
		{gen: w4, periods: 3},
		{gen: w1, periods: 2},
		{gen: w4, periods: 3, onEnter: func() {
			dataset.UpdateDrift(tbl, 0.5, 1.0, rng)
			fmt.Println("  >> data drift injected: 50% of rows updated")
		}},
	}

	fmt.Println("period | workload | detected mode | generated | annotated | GMQ on current workload")
	p := 0
	for _, phase := range phases {
		if phase.onEnter != nil {
			phase.onEnter()
		}
		for range phase.periods {
			p++
			// 15 labeled queries arrive per period from the current workload.
			arrivals := make([]warper.Arrival, 15)
			for i := range arrivals {
				pr := phase.gen.Gen(rng)
				arrivals[i] = warper.Arrival{Pred: pr, GT: must1(ann.Count(context.Background(), pr)), HasGT: true}
			}
			rep := must1(adapter.Period(arrivals))

			test := must1(ann.AnnotateAll(context.Background(), workload.Generate(phase.gen, 80, rng)))
			fmt.Printf("%6d | %-8s | %-13s | %9d | %9d | %.2f\n",
				p, phase.gen.Name(), rep.Detection.Mode, rep.Generated, rep.Annotated,
				ce.EvalGMQ(model, test))
		}
	}
	fmt.Printf("\nfinal π=%.2f γ=%d — Warper relaxed or tightened its own thresholds as drifts came and went\n",
		adapter.Pi(), adapter.Gamma())
}

// must aborts the example on an unexpected error.
func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// must1 unwraps a (value, error) pair, aborting on error.
func must1[T any](v T, err error) T {
	must(err)
	return v
}
