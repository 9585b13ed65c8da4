package warper

import (
	"context"
	"reflect"
	"slices"
	"strings"
	"testing"

	"warper/internal/ce"
	"warper/internal/resilience"
)

// TestPartialPeriodStillImprovesGMQ is the golden degradation test: with the
// exact source dropping ~30% of annotation calls — enough to force partial
// periods — adaptation on a drifted workload must still improve GMQ,
// because the labels that did arrive are exact. Every period proceeds: the
// 40 fed labels of its arrivals count toward the minLabelFraction floor, so
// a small pick batch that loses most of its calls (2 of 5 in the third
// period) does not throw the arrivals' update away.
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

// TestFedLabelsHoldTheFloor pins what the label floor counts: a period's
// labeled arrivals are labels its update uses, so they count on both sides
// of minLabelFraction. With nine calls in ten failing, a small pick batch
// falls far below the floor on its own, yet 40 fed labels carry the period:
// it proceeds partial and updates 𝕄.
func TestFedLabelsHoldTheFloor(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	e.ad.SetSource(resilience.NewFaulty(e.ann, resilience.FaultPlan{ErrRate: 0.9, Seed: 78}))
	weights := paramBits(reflect.ValueOf(e.ad.M), map[uintptr]bool{}, nil)

	rep := periodOK(t, e.ad, arrivalsOf(e.newQ[:40], true))
	if requested := rep.Annotated + rep.AnnotateFailed; float64(rep.Annotated) >= minLabelFraction*float64(requested) {
		t.Fatalf("the pick batch got %d/%d labels, not below the floor on its own: the premise is gone", rep.Annotated, requested)
	}
	if !rep.Partial || !rep.Updated {
		t.Errorf("period reports partial=%v updated=%v, want both", rep.Partial, rep.Updated)
	}
	if got := paramBits(reflect.ValueOf(e.ad.M), map[uintptr]bool{}, nil); slices.Equal(got, weights) {
		t.Error("the period left 𝕄's weights unchanged")
	}
}

// floorPeriod runs one period under a faulty source and reports whether it
// aborted. An aborted period must have stopped at the label floor and left
// what the caller rolls back to: 𝕄's weights bit for bit, and a pool with
// none of the period's entries.
func floorPeriod(t *testing.T, ad *Adapter, arrivals []Arrival) (Report, bool) {
	t.Helper()
	weights := paramBits(reflect.ValueOf(ad.M), map[uintptr]bool{}, nil)
	size := ad.Pool.Len()
	rep, err := ad.Period(arrivals)
	if err == nil {
		return rep, false
	}
	if !strings.Contains(err.Error(), "floor") {
		t.Fatalf("period failed with %v, want the label-floor error", err)
	}
	if rep.Partial || rep.Updated {
		t.Errorf("aborted period reports partial=%v updated=%v, want neither", rep.Partial, rep.Updated)
	}
	if got := paramBits(reflect.ValueOf(ad.M), map[uintptr]bool{}, nil); !slices.Equal(got, weights) {
		t.Error("the aborted period moved 𝕄's weights")
	}
	if got := ad.Pool.Len(); got != size {
		t.Errorf("pool holds %d entries after the aborted period, %d before: its additions stayed", got, size)
	}
	return rep, true
}

// TestBelowFloorAborts pins the last rung of the degradation ladder: when
// exact annotation falls under minLabelFraction, the period aborts
// (floorPeriod) and the pool keeps only exact labels — no approximate count
// stands in for the ones the source lost.
func TestBelowFloorAborts(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	// Nine exact calls in ten fail, and the arrivals carry no feedback, so
	// they need labels too: far below the 50% floor, so every annotating
	// period aborts.
	e.ad.SetSource(resilience.NewFaulty(e.ann, resilience.FaultPlan{ErrRate: 0.9, Seed: 78}))

	for step := 0; step < 3; step++ {
		if _, aborted := floorPeriod(t, e.ad, arrivalsOf(e.newQ[step*40:(step+1)*40], false)); !aborted {
			continue // nothing left to annotate: no rung was reached
		}
		for i, pe := range e.ad.Pool.Entries {
			if pe.HasGT() {
				if want := countOK(t, e.ann, pe.Pred); pe.GT != want {
					t.Fatalf("pool entry %d (%v) is labeled %v, the exact count is %v", i, pe.Source, pe.GT, want)
				}
			}
		}
		return
	}
	t.Fatal("no period aborted under a 90% error rate with a 50% floor")
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
