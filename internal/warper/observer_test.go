package warper

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/workload"
)

// stageLedgerKeys states, independently of PeriodCtx, which Ledger keys each
// stage's time is charged under. The resilience wrapper's "retry" key is a
// breakdown of time already inside "annotate" and stays out of the identity.
var stageLedgerKeys = [len(StageNames)][]string{
	StageDetect:   {"detect"},
	StageGenerate: {"gan", "gen", "ae", "embed"},
	StagePick:     {"pick"},
	StageAnnotate: {"annotate"},
	StageUpdate:   {"model", "finish"},
}

// clockedPeriod runs one period and asserts the period record's clock
// identities, which hold by construction on every return path: the stages
// sum to Busy exactly, and each stage equals, exactly, what the period
// charged to that stage's Ledger keys.
func clockedPeriod(t *testing.T, ad *Adapter, ctx context.Context, arrivals []Arrival) (Report, error) {
	t.Helper()
	before := map[string]time.Duration{}
	for _, keys := range stageLedgerKeys {
		for _, k := range keys {
			before[k] = ad.Ledger.Get(k)
		}
	}
	rep, err := ad.PeriodCtx(ctx, arrivals)
	var sum time.Duration
	for stage, keys := range stageLedgerKeys {
		var charged time.Duration
		for _, k := range keys {
			charged += ad.Ledger.Get(k) - before[k]
		}
		if charged != rep.Stages[stage] {
			t.Errorf("stage %s = %v, but its ledger keys %v were charged %v",
				StageNames[stage], rep.Stages[stage], keys, charged)
		}
		sum += rep.Stages[stage]
	}
	if sum != rep.Busy {
		t.Errorf("stages sum to %v, Busy = %v", sum, rep.Busy)
	}
	return rep, err
}

// wantStages asserts which stages took time: a stage the period never
// entered reports exactly zero, one it ran reports more.
func wantStages(t *testing.T, rep Report, ran ...int) {
	t.Helper()
	did := map[int]bool{}
	for _, s := range ran {
		did[s] = true
	}
	for stage, d := range rep.Stages {
		if did[stage] && d <= 0 {
			t.Errorf("stage %s ran but reports %v", StageNames[stage], d)
		}
		if !did[stage] && d != 0 {
			t.Errorf("stage %s never ran but reports %v", StageNames[stage], d)
		}
	}
}

var allStages = []int{StageDetect, StageGenerate, StagePick, StageAnnotate, StageUpdate}

// TestObserverFiresEveryStageOncePerPeriod keeps its name from the callback
// seam it used to watch; what it pins now is the returned record. A quiet
// period and a full (c2) one each carry all five stages, once: the quiet period's
// later stages are present and zero, so per-stage histograms fed from
// Report.Stages stay aligned with the period count.
func TestObserverFiresEveryStageOncePerPeriod(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	bg := context.Background()

	rng := rand.New(rand.NewSource(51))
	g := workload.New("w1", e.tbl, e.sch, workload.Options{MaxConstrained: 2})
	same := annAllT(t, e.ann, workload.Generate(g, 160, rng))
	rep, err := clockedPeriod(t, e.ad, bg, arrivalsOf(same, true))
	if err != nil {
		t.Fatalf("quiet period: %v", err)
	}
	if rep.Detection.Mode != ModeNone {
		t.Fatalf("mode = %v, want none", rep.Detection.Mode)
	}
	wantStages(t, rep, StageDetect)

	rep, err = clockedPeriod(t, e.ad, bg, arrivalsOf(e.newQ[:40], true))
	if err != nil {
		t.Fatalf("c2 period: %v", err)
	}
	if !rep.Detection.Mode.Has(C2) || !rep.Updated || rep.TrainedSamples == 0 {
		t.Fatalf("period ran %v updated=%v trained=%d, want an updating, training c2 period",
			rep.Detection.Mode, rep.Updated, rep.TrainedSamples)
	}
	wantStages(t, rep, allStages...)
}

// TestLedgerCoversEveryStage pins the §4.3 cost ledger to the period's clock
// on a data-drift (c1) period — the mode whose update stage also rebases the
// canaries: what Table 6 / Table 11 build from the ledger is the whole
// period, to the nanosecond, not a subset of it within a tolerance.
func TestLedgerCoversEveryStage(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	rng := rand.New(rand.NewSource(52))
	dataset.UpdateDrift(e.tbl, 0.6, 1.5, rng)
	g := workload.New("w1", e.tbl, e.sch, workload.Options{MaxConstrained: 2})
	arr := make([]Arrival, 100)
	for i := range arr {
		arr[i] = Arrival{Pred: g.Gen(rng)}
	}
	rep, err := clockedPeriod(t, e.ad, context.Background(), arr)
	if err != nil {
		t.Fatalf("c1 period: %v", err)
	}
	if !rep.Detection.Mode.Has(C1) || !rep.Updated {
		t.Fatalf("period ran %v updated=%v, want an updating c1 period", rep.Detection.Mode, rep.Updated)
	}
	wantStages(t, rep, allStages...)
	if e.ad.Ledger.Get("finish") == 0 {
		t.Error("the update stage's tail (early-stop evaluation, canary rebase) charged nothing")
	}
}

// cancelAfter is a ground-truth source that answers its first n counts —
// detection's canary probes — and cancels the period's context on the next:
// the caller giving up in the middle of annotation.
type cancelAfter struct {
	annotator.Source
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Count(ctx context.Context, p query.Predicate) (float64, error) {
	if c.n--; c.n >= 0 {
		return c.Source.Count(ctx, p)
	}
	c.cancel()
	return 0, ctx.Err()
}

// failingUpdate is a CE model whose Update fails while fail is set.
type failingUpdate struct {
	ce.Estimator
	fail bool
}

func (m *failingUpdate) Update(ex []query.Labeled) error {
	if m.fail {
		return errors.New("injected update failure")
	}
	return m.Estimator.Update(ex)
}

// TestFailedPeriodsKeepTheClock drives the error returns: the record of a
// period that failed still accounts for every stage it reached (and none it
// did not), and the samples its components trained before the failure are
// reported by the next period that completes.
func TestFailedPeriodsKeepTheClock(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	bg := context.Background()

	// Never started: no clock ran.
	dead, cancel := context.WithCancel(bg)
	cancel()
	rep, err := clockedPeriod(t, e.ad, dead, arrivalsOf(e.newQ[:40], true))
	if err == nil || rep.Busy != 0 {
		t.Fatalf("cancelled-before-start period: err=%v busy=%v, want an error and no time", err, rep.Busy)
	}

	// Aborted inside annotate.
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	e.ad.SetSource(&cancelAfter{Source: e.ann, n: e.ad.Cfg.Canaries, cancel: cancel})
	rep, err = clockedPeriod(t, e.ad, ctx, arrivalsOf(e.newQ[:40], false))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("period cancelled mid-annotation returned %v", err)
	}
	wantStages(t, rep, StageDetect, StageGenerate, StagePick, StageAnnotate)
	e.ad.SetSource(nil)

	// Failed in the model update, after the components trained.
	m := &failingUpdate{Estimator: e.ad.M, fail: true}
	e.ad.M = m
	rep, err = clockedPeriod(t, e.ad, bg, arrivalsOf(e.newQ[40:80], true))
	if err == nil || rep.Updated {
		t.Fatalf("period with a failing model update: err=%v updated=%v", err, rep.Updated)
	}
	wantStages(t, rep, allStages...)
	if rep.TrainedSamples != 0 {
		t.Errorf("failed period reports %d trained samples; they belong to the next completed one", rep.TrainedSamples)
	}
	carried := e.ad.comps.trained
	if carried == 0 {
		t.Fatal("the failed periods trained nothing: no samples to carry over")
	}

	m.fail = false
	rep, err = clockedPeriod(t, e.ad, bg, arrivalsOf(e.newQ[80:120], true))
	if err != nil {
		t.Fatalf("period after the failures: %v", err)
	}
	if rep.TrainedSamples < carried {
		t.Errorf("completed period reports %d trained samples, fewer than the %d the failed ones left behind",
			rep.TrainedSamples, carried)
	}
	if e.ad.comps.trained != 0 {
		t.Errorf("%d trained samples left unreported after a completed period", e.ad.comps.trained)
	}
}
