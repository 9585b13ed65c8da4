package engine

import (
	"context"
	"math/rand"
	"testing"

	"warper/internal/annotator"
	"warper/internal/query"
	"warper/internal/tpch"
)

type fixture struct {
	eng   *Engine
	schL  *query.Schema
	schO  *query.Schema
	wideL query.Predicate // selects most of lineitem
	wideO query.Predicate // selects most of orders
	tinyL query.Predicate
	tinyO query.Predicate
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	db := tpch.Generate(2000, rng)
	eng := New(db)
	schL := query.SchemaOf(db.Lineitem)
	schO := query.SchemaOf(db.Orders)

	wideL := query.NewFullRange(schL)
	wideO := query.NewFullRange(schO)
	tinyL := query.NewFullRange(schL)
	tinyL.SetRange(tpch.LColQuantity, 1, 2) // few rows
	tinyO := query.NewFullRange(schO)
	mx := schO.Maxs[tpch.OColTotalPrice]
	tinyO.SetRange(tpch.OColTotalPrice, mx*0.97, mx)
	return &fixture{eng: eng, schL: schL, schO: schO,
		wideL: wideL, wideO: wideO, tinyL: tinyL.Normalize(schL), tinyO: tinyO.Normalize(schO)}
}

func (f *fixture) trueCards(t *testing.T, pl, po query.Predicate) (float64, float64) {
	t.Helper()
	al := annotator.New(f.eng.DB.Lineitem)
	ao := annotator.New(f.eng.DB.Orders)
	cl, err := al.Count(context.Background(), pl)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	co, err := ao.Count(context.Background(), po)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	return cl, co
}

func TestS1UnderestimateCausesMidSpill(t *testing.T) {
	f := newFixture(t)
	trueL, trueO := f.trueCards(t, f.wideL, f.wideO)
	good := f.eng.Run(S1BufferSpill, f.wideL, f.wideO, trueL, trueO)
	if good.SpilledMid {
		t.Error("true-cardinality plan should pre-partition, not overflow")
	}
	// Underestimate: planner skips pre-partitioning, overflows mid-build.
	bad := f.eng.Run(S1BufferSpill, f.wideL, f.wideO, 10, 10)
	if !bad.SpilledMid {
		t.Fatal("underestimate should cause an unplanned spill")
	}
	if bad.Latency <= good.Latency {
		t.Errorf("unplanned spill (%v) should be slower than planned (%v)", bad.Latency, good.Latency)
	}
	// Paper reports ≈2.1× worst-case for S1; require a sizable gap.
	if ratio := float64(bad.Latency) / float64(good.Latency); ratio < 1.2 || ratio > 10 {
		t.Errorf("S1 gap = %.2f, want within [1.2, 10]", ratio)
	}
}

func TestS1OverestimateOnlyPlansSpill(t *testing.T) {
	f := newFixture(t)
	trueL, trueO := f.trueCards(t, f.wideL, f.tinyO)
	good := f.eng.Run(S1BufferSpill, f.wideL, f.tinyO, trueL, trueO)
	// Overestimate: spill planned unnecessarily — costs a bit, never
	// catastrophic (matches the paper: "over-estimates waste memory but
	// have little impact").
	bad := f.eng.Run(S1BufferSpill, f.wideL, f.tinyO, trueL, 1e9)
	if bad.SpilledMid {
		t.Error("overestimate must not overflow")
	}
	if ratio := float64(bad.Latency) / float64(good.Latency); ratio > 3 {
		t.Errorf("overestimate penalty %.2f× too harsh", ratio)
	}
}

func TestS2UnderestimatePicksDisastrousNL(t *testing.T) {
	f := newFixture(t)
	trueL, trueO := f.trueCards(t, f.wideL, f.wideO)
	good := f.eng.Run(S2JoinType, f.wideL, f.wideO, trueL, trueO)
	if good.Plan.UseNL {
		t.Fatal("true cardinalities should pick hash join for wide inputs")
	}
	bad := f.eng.Run(S2JoinType, f.wideL, f.wideO, 5, 5)
	if !bad.Plan.UseNL || !bad.NLDisaster {
		t.Fatal("underestimates should pick a nested loop over large inputs")
	}
	ratio := float64(bad.Latency) / float64(good.Latency)
	// Paper reports up to 306×; our scaled tables should still show a
	// catastrophic gap.
	if ratio < 20 {
		t.Errorf("S2 gap = %.1f×, want >= 20×", ratio)
	}
	if good.OutputRows != bad.OutputRows {
		t.Errorf("plans disagree on results: %d vs %d", good.OutputRows, bad.OutputRows)
	}
}

func TestS2NLFineForTinyInputs(t *testing.T) {
	f := newFixture(t)
	f.eng.NLThresholdRows = 400 // both filtered inputs land under this
	trueL, trueO := f.trueCards(t, f.tinyL, f.tinyO)
	good := f.eng.Run(S2JoinType, f.tinyL, f.tinyO, trueL, trueO)
	if !good.Plan.UseNL {
		t.Fatal("tiny inputs should use nested loop")
	}
	if good.NLDisaster {
		t.Error("NL over tiny inputs flagged as disaster")
	}
}

func TestS3WrongBitmapSideCostsMore(t *testing.T) {
	f := newFixture(t)
	// Orders filtered tiny, lineitem wide: bitmap belongs on orders.
	trueL, trueO := f.trueCards(t, f.wideL, f.tinyO)
	good := f.eng.Run(S3BitmapSide, f.wideL, f.tinyO, trueL, trueO)
	if !good.Plan.BitmapOnOrders {
		t.Fatal("true cardinalities should build the bitmap on orders")
	}
	// Estimates inverted: bitmap lands on the big lineitem side.
	bad := f.eng.Run(S3BitmapSide, f.wideL, f.tinyO, 10, 1e9)
	if bad.Plan.BitmapOnOrders {
		t.Fatal("inverted estimates should build on lineitem")
	}
	if !bad.WrongBitmap {
		t.Error("wrong side not flagged")
	}
	ratio := float64(bad.Latency) / float64(good.Latency)
	if ratio < 1.3 {
		t.Errorf("S3 gap = %.2f×, want >= 1.3×", ratio)
	}
	if good.OutputRows != bad.OutputRows {
		t.Errorf("plans disagree on results: %d vs %d", good.OutputRows, bad.OutputRows)
	}
}

func TestAllPlansAgreeOnOutput(t *testing.T) {
	f := newFixture(t)
	trueL, trueO := f.trueCards(t, f.tinyL, f.wideO)
	var outs []int
	for _, s := range []Scenario{S1BufferSpill, S2JoinType, S3BitmapSide} {
		outs = append(outs, f.eng.Run(s, f.tinyL, f.wideO, trueL, trueO).OutputRows)
	}
	if outs[0] != outs[1] || outs[1] != outs[2] {
		t.Errorf("scenarios disagree on join output: %v", outs)
	}
}

func TestLatencyGap(t *testing.T) {
	f := newFixture(t)
	trueL, trueO := f.trueCards(t, f.wideL, f.wideO)
	goodLat, badLat := f.eng.LatencyGap(S2JoinType, f.wideL, f.wideO, 5, 5, trueL, trueO)
	if badLat <= goodLat {
		t.Errorf("LatencyGap: bad %v <= good %v", badLat, goodLat)
	}
}

func TestScenarioString(t *testing.T) {
	if S1BufferSpill.String() == "" || S2JoinType.String() == "" || S3BitmapSide.String() == "" {
		t.Error("empty scenario strings")
	}
}
