// End-to-end plan quality: cardinality estimates drive the three plan
// decisions of §4.2 (buffer spills, nested-loop vs hash join, bitmap side)
// in the mini engine over TPC-H-shaped tables — showing how CE error turns
// into latency, and how adaptation wins it back.
//
// Run with: go run ./examples/endtoend
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/engine"
	"warper/internal/query"
	"warper/internal/tpch"
	"warper/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(11))
	db := tpch.Generate(3000, rng)
	eng := engine.New(db)
	schL := query.SchemaOf(db.Lineitem)
	schO := query.SchemaOf(db.Orders)
	annL := annotator.New(db.Lineitem)
	annO := annotator.New(db.Orders)
	fmt.Printf("TPC-H-shaped DB: %d orders, %d lineitems\n",
		db.Orders.NumRows(), db.Lineitem.NumRows())

	// 1. How bad can a misplanned query get? Worst-case plan flips.
	wideL := query.NewFullRange(schL)
	wideO := query.NewFullRange(schO)
	trueL, trueO := must1(annL.Count(context.Background(), wideL)), must1(annO.Count(context.Background(), wideO))
	fmt.Println("\nworst-case plan flips (same query, wrong estimates):")
	for _, s := range []engine.Scenario{engine.S1BufferSpill, engine.S2JoinType, engine.S3BitmapSide} {
		good, bad := eng.LatencyGap(s, wideL, wideO, trueL/1000, trueO/1000, trueL, trueO)
		fmt.Printf("  %-16s good plan %8v  bad plan %10v  (%.1fx)\n",
			s, good, bad, float64(bad)/float64(good))
	}

	// 2. A CE model planning real queries: train on w1, then measure how
	// its estimates translate into plan latency vs the true-cardinality
	// plans.
	opts := workload.Options{MinConstrained: 1, MaxConstrained: 2}
	gL := workload.New("w1", db.Lineitem, schL, opts)
	gO := workload.New("w1", db.Orders, schO, opts)
	trainL := must1(annL.AnnotateAll(context.Background(), workload.Generate(gL, 500, rng)))
	trainO := must1(annO.AnnotateAll(context.Background(), workload.Generate(gO, 500, rng)))
	mL := ce.NewLM(ce.LMMLP, schL, 1)
	must(mL.Train(trainL))
	mO := ce.NewLM(ce.LMMLP, schO, 2)
	must(mO.Train(trainO))

	report := func(label string, gl, gob workload.Generator) {
		var actual, ideal float64
		const n = 30
		for i := 0; i < n; i++ {
			pl, po := gl.Gen(rng), gob.Gen(rng)
			tl, to := must1(annL.Count(context.Background(), pl)), must1(annO.Count(context.Background(), po))
			good, bad := eng.LatencyGap(engine.S2JoinType, pl, po,
				mL.Estimate(pl), mO.Estimate(po), tl, to)
			actual += float64(bad)
			ideal += float64(good)
		}
		fmt.Printf("  %-28s latency vs perfect plans: %.2fx\n", label, actual/ideal)
	}
	fmt.Println("\nS2 (join-type choice) with the trained model:")
	report("in-distribution (w1)", gL, gO)

	// 3. Drift the lineitem workload to w2 — plans degrade — then adapt.
	gL2 := workload.New("w2", db.Lineitem, schL, opts)
	report("after drift to w2", gL2, gO)

	for round := 0; round < 3; round++ {
		newQ := must1(annL.AnnotateAll(context.Background(), workload.Generate(gL2, 100, rng)))
		must(mL.Update(newQ))
	}
	report("after adapting on 300 queries", gL2, gO)
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
