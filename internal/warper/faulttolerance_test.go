package warper

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/resilience"
)

// TestPartialPeriodStillImprovesGMQ is the golden degradation test: with the
// exact source dropping ~30% of annotation calls — enough to force partial
// periods, not enough to hit the minLabelFraction floor — adaptation on a
// drifted workload must still improve GMQ, because the labels that did
// arrive are exact.
func TestPartialPeriodStillImprovesGMQ(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	e.ad.SetSource(resilience.NewFaulty(e.ann, resilience.FaultPlan{ErrRate: 0.3, Seed: 77}))
	testSet := e.newQ[400:]
	before := ce.EvalGMQ(e.lm, testSet)

	sawPartial := false
	failed := 0
	for step := 0; step < 4; step++ {
		rep := periodOK(t, e.ad, arrivalsOf(e.newQ[step*40:(step+1)*40], true))
		sawPartial = sawPartial || rep.Partial
		failed += rep.AnnotateFailed
	}
	if !sawPartial {
		t.Error("no period went partial under a 30% annotation error rate")
	}
	if failed == 0 {
		t.Error("no annotation call failed under a 30% error rate")
	}
	if after := ce.EvalGMQ(e.lm, testSet); after >= before {
		t.Errorf("partial periods did not improve GMQ: before=%v after=%v", before, after)
	}
}

// TestFallbackRescuesBelowFloor pins the second rung of the degradation
// ladder: when exact annotation falls under minLabelFraction, the sampled
// fallback fills in and the period completes with UsedFallback set instead
// of aborting.
func TestFallbackRescuesBelowFloor(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	// Nine exact calls in ten fail: far below the 50% floor, so every
	// annotating period needs the fallback.
	e.ad.SetSource(resilience.NewFaulty(e.ann, resilience.FaultPlan{ErrRate: 0.9, Seed: 78}))

	sawFallback := false
	for step := 0; step < 3 && !sawFallback; step++ {
		rep := periodOK(t, e.ad, arrivalsOf(e.newQ[step*40:(step+1)*40], true))
		if rep.Annotated > 0 {
			sawFallback = rep.UsedFallback
			if sawFallback && !rep.Partial {
				t.Error("UsedFallback without Partial: fallback labels are partial by definition")
			}
		}
	}
	if !sawFallback {
		t.Error("sampled fallback never engaged under a 90% error rate with a 50% floor")
	}
}

// TestFallbackSampleFollowsTheTable pins that the sampled fallback counts
// over the table as it is now. Every exact call fails, so every annotating
// period falls back; between periods the table doubles, then halves. A
// sample kept from before scales a full-range count to the old row count
// after the append, and indexes rows that no longer exist after the
// truncate.
func TestFallbackSampleFollowsTheTable(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	e.ad.SetSource(resilience.NewFaulty(e.ann, resilience.FaultPlan{ErrRate: 1, Seed: 80}))
	all := query.Predicate{Lows: make([]float64, e.tbl.NumCols()), Highs: make([]float64, e.tbl.NumCols())}
	for i := range all.Lows {
		all.Lows[i], all.Highs[i] = math.Inf(-1), math.Inf(1)
	}
	// fallBack runs a period that must annotate through the fallback, then
	// checks the fallback's full-range count against the live row count.
	fallBack := func(what string, arrivals []Arrival) {
		t.Helper()
		rep := periodOK(t, e.ad, arrivals)
		if !rep.UsedFallback {
			t.Fatalf("%s: period did not fall back (mode %v, annotated %d)", what, rep.Detection.Mode, rep.Annotated)
		}
		got, err := e.ad.fallback.Count(context.Background(), all)
		if err != nil {
			t.Fatalf("%s: fallback count: %v", what, err)
		}
		if n := float64(e.tbl.NumRows()); math.Abs(got-n) > 1e-6*n {
			t.Fatalf("%s: fallback counts %v rows in range, table has %v", what, got, n)
		}
	}

	fallBack("drift", arrivalsOf(e.newQ[:40], true))
	rng := rand.New(rand.NewSource(81))
	dataset.AppendDrift(e.tbl, 1.0, 0.5, rng)
	fallBack("after append", arrivalsOf(e.newQ[40:80], true))
	dataset.SortTruncateHalf(e.tbl, 1)
	fallBack("after truncate", arrivalsOf(e.newQ[80:120], true))
}

// TestCancelledPeriodAborts pins the abort rung: parent-context
// cancellation is the caller giving up, so the period returns the ctx error
// instead of degrading.
func TestCancelledPeriodAborts(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ad.PeriodCtx(ctx, arrivalsOf(e.newQ[:40], true)); err == nil {
		t.Fatal("PeriodCtx with a cancelled context returned nil error")
	}
}
