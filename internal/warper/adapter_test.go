package warper

import (
	"math/rand"
	"testing"

	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/pool"
	"warper/internal/query"
	"warper/internal/workload"
)

// adapterEnv builds a trained LM + Adapter over PRSA-like data.
type adapterEnv struct {
	*testEnv
	lm *ce.LM
	ad *Adapter
}

func newAdapterEnv(t *testing.T, cfg Config, nTrain int) *adapterEnv {
	t.Helper()
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	env := newTestEnv(t, nTrain, 600)
	lm := ce.NewLM(ce.LMMLP, env.sch, 31)
	if err := lm.Train(env.train); err != nil {
		t.Fatalf("Train: %v", err)
	}
	ad, err := New(cfg, lm, env.sch, env.ann, env.train)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return &adapterEnv{testEnv: env, lm: lm, ad: ad}
}

func adapterCfg() Config {
	c := DefaultConfig()
	c.Hidden = 64
	c.Depth = 2
	c.Gamma = 150
	c.PickSize = 150
	return c
}

func arrivalsOf(lqs []query.Labeled, withGT bool) []Arrival {
	out := make([]Arrival, len(lqs))
	for i, lq := range lqs {
		out[i] = Arrival{Pred: lq.Pred, GT: lq.Card, HasGT: withGT}
	}
	return out
}

func TestNoDriftMeansNoAction(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	// Arrivals from the SAME workload as training: no drift expected.
	rng := rand.New(rand.NewSource(51))
	g := workload.New("w1", e.tbl, e.sch, workload.Options{MaxConstrained: 2})
	same := annAllT(t, e.ann, workload.Generate(g, 160, rng))
	rep := periodOK(t, e.ad, arrivalsOf(same, true))
	if rep.Detection.Mode != ModeNone {
		t.Errorf("mode = %v, want none (δm=%.2f δjs=%.2f)", rep.Detection.Mode,
			rep.Detection.DeltaM, rep.Detection.DeltaJS)
	}
	if rep.Updated || rep.Generated > 0 || rep.Annotated > 0 {
		t.Errorf("no-drift period took action: %+v", rep)
	}
}

func TestC2WorkloadDriftDetectedAndMitigated(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	testSet := e.newQ[400:]
	before := ce.EvalGMQ(e.lm, testSet)

	// Few labeled arrivals from the drifted workload (< γ) → c2.
	var gmqAfter float64
	for step := 0; step < 4; step++ {
		batch := arrivalsOf(e.newQ[step*40:(step+1)*40], true)
		rep := periodOK(t, e.ad, batch)
		if step == 0 {
			if !rep.Detection.Mode.Has(C2) {
				t.Fatalf("mode = %v, want c2 (δm=%.2f δjs=%.2f nt=%d)", rep.Detection.Mode,
					rep.Detection.DeltaM, rep.Detection.DeltaJS, rep.Detection.NT)
			}
			if rep.Generated == 0 {
				t.Error("c2 period generated no synthetic queries")
			}
		}
		gmqAfter = ce.EvalGMQ(e.lm, testSet)
	}
	if gmqAfter >= before {
		t.Errorf("adaptation did not improve GMQ: before=%v after=%v", before, gmqAfter)
	}
}

func TestC3LabelStarvedDrift(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	// Plenty of arrivals (>= γ) but no labels → c3.
	batch := arrivalsOf(e.newQ[:200], false)
	rep := periodOK(t, e.ad, batch)
	if !rep.Detection.Mode.Has(C3) {
		t.Fatalf("mode = %v, want c3 (δjs=%.2f)", rep.Detection.Mode, rep.Detection.DeltaJS)
	}
	if rep.Annotated == 0 {
		t.Error("c3 period annotated nothing")
	}
	// Annotations must stay within the pick budget plus arrivals.
	if rep.Annotated > e.ad.Cfg.PickSize+len(batch) {
		t.Errorf("annotated %d, beyond any reasonable budget", rep.Annotated)
	}
}

func TestC4AdequateLabeledQueries(t *testing.T) {
	cfg := adapterCfg()
	cfg.Gamma = 50 // small γ so 200 labeled arrivals are "adequate"
	e := newAdapterEnv(t, cfg, 500)
	rep := periodOK(t, e.ad, arrivalsOf(e.newQ[:200], true))
	if !rep.Detection.Mode.Has(C4) {
		t.Fatalf("mode = %v, want c4", rep.Detection.Mode)
	}
	if rep.Generated != 0 {
		t.Error("c4 must not generate synthetic queries")
	}
	if rep.Annotated != 0 {
		t.Error("c4 must not spend annotation budget")
	}
	if !rep.Updated {
		t.Error("c4 must still update the model")
	}
}

func TestC1DataDrift(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	// Mutate the table: labels go stale; the workload stays the same.
	rng := rand.New(rand.NewSource(52))
	dataset.UpdateDrift(e.tbl, 0.6, 1.5, rng)

	g := workload.New("w1", e.tbl, e.sch, workload.Options{MaxConstrained: 2})
	sameWkld := workload.Generate(g, 100, rng)
	arr := make([]Arrival, len(sameWkld))
	for i, p := range sameWkld {
		arr[i] = Arrival{Pred: p} // no labels; detection leans on telemetry
	}
	rep := periodOK(t, e.ad, arr)
	if !rep.Detection.Mode.Has(C1) {
		t.Fatalf("mode = %v, want c1", rep.Detection.Mode)
	}
	if rep.Annotated == 0 {
		t.Error("c1 period re-annotated nothing")
	}
	// The pool's training entries must have been marked stale, then some
	// re-annotated.
	stale, fresh := 0, 0
	for _, pe := range e.ad.Pool.BySource(pool.SrcTrain) {
		if pe.Stale {
			stale++
		} else if pe.GT >= 0 {
			fresh++
		}
	}
	if fresh == 0 {
		t.Error("no training entries re-annotated after data drift")
	}
	if stale == 0 {
		t.Error("expected some entries to remain stale (budget-limited)")
	}
}

// noGainLeft makes every later adaptation period a stall: no GMQ is below
// 1, so none beats a best of 1 by gainEps.
func noGainLeft(ad *Adapter) { ad.bestEvalGMQ, ad.haveBest = 1, true }

func TestEarlyStopRaisesPi(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 500)
	noGainLeft(e.ad)
	pi0 := e.ad.Pi()
	// The stall counter requires several small-gain adaptation periods
	// (quiet no-drift periods in between do not count) before raising π.
	raised := false
	for i := 0; i < 10 && !raised; i++ {
		periodOK(t, e.ad, arrivalsOf(e.newQ[i*60:(i+1)*60], true))
		raised = e.ad.Pi() > pi0
	}
	if !raised {
		t.Errorf("π never raised by early stop: %v", e.ad.Pi())
	}
}

func TestGammaTunedUpOnSlowC4(t *testing.T) {
	cfg := adapterCfg()
	cfg.Gamma = 40
	e := newAdapterEnv(t, cfg, 500)
	noGainLeft(e.ad)
	g0 := e.ad.Gamma()
	periodOK(t, e.ad, arrivalsOf(e.newQ[:120], true))
	periodOK(t, e.ad, arrivalsOf(e.newQ[120:240], true))
	if e.ad.Gamma() <= g0 {
		t.Errorf("γ not tuned up: %v -> %v", g0, e.ad.Gamma())
	}
}

func TestLedgerAccumulatesCosts(t *testing.T) {
	e := newAdapterEnv(t, adapterCfg(), 400)
	if e.ad.Ledger.Get("pretrain") == 0 {
		t.Error("pretrain cost not charged")
	}
	// Feed periods until a drift is handled (detection can stay quiet on an
	// individual noisy period).
	update := StageNames[StageUpdate]
	for i := 0; i < 6 && e.ad.Ledger.Get(update) == 0; i++ {
		periodOK(t, e.ad, arrivalsOf(e.newQ[i*50:(i+1)*50], true))
	}
	if e.ad.Ledger.Get(update) == 0 {
		t.Error("model update cost not charged")
	}
}

func TestAnnotateBudgetHonored(t *testing.T) {
	cfg := adapterCfg()
	cfg.AnnotateBudget = 7
	e := newAdapterEnv(t, cfg, 400)
	rep := periodOK(t, e.ad, arrivalsOf(e.newQ[:150], false)) // c3: all need labels
	if rep.Annotated > 7 {
		t.Errorf("annotated %d, budget 7", rep.Annotated)
	}
}

// TestC2AndC3TrainTheSameAutoencoderSteps: every drift mode trains 𝔼/𝔾 as
// one autoencoder for periodSteps minibatches over the pool, so a c2 period
// and a c3 period over equal pools report the same TrainedSamples. Two adapters are
// built alike (they differ only in γ, which decides c2 against c3 for the
// same 40 drifted arrivals) and share a quiet warm-up period, which absorbs
// the pretraining count.
func TestC2AndC3TrainTheSameAutoencoderSteps(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	env := newTestEnv(t, 500, 40)
	lm := ce.NewLM(ce.LMMLP, env.sch, 31)
	if err := lm.Train(env.train); err != nil {
		t.Fatalf("Train: %v", err)
	}
	g := workload.New("w1", env.tbl, env.sch, workload.Options{MaxConstrained: 2})
	warmUp := arrivalsOf(annAllT(t, env.ann, workload.Generate(g, 160, rand.New(rand.NewSource(51)))), true)
	run := func(gamma int, withGT bool) (Report, *Adapter) {
		cfg := adapterCfg()
		cfg.Gamma = gamma
		ad, err := New(cfg, lm.Clone(), env.sch, env.ann, env.train)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if rep := periodOK(t, ad, warmUp); rep.Detection.Mode != ModeNone {
			t.Fatalf("warm-up mode = %v, want none", rep.Detection.Mode)
		}
		return periodOK(t, ad, arrivalsOf(env.newQ, withGT)), ad
	}
	c2, _ := run(150, true)  // 40 labeled arrivals < γ
	c3, ad := run(20, false) // 40 unlabeled arrivals ≥ γ
	if c2.Detection.Mode != C2 || c3.Detection.Mode != C3 {
		t.Fatalf("modes %v and %v, want c2 and c3", c2.Detection.Mode, c3.Detection.Mode)
	}
	// periodSteps minibatches: whole passes over the pool, each ending in a
	// partial batch, then full batches of the next pass.
	n := ad.Pool.Len()
	perPass := (n + batchSize - 1) / batchSize
	want := periodSteps/perPass*n + periodSteps%perPass*batchSize
	if c2.TrainedSamples != want || c3.TrainedSamples != want {
		t.Errorf("TrainedSamples c2 %d, c3 %d, want both %d (%d minibatches over a pool of %d)",
			c2.TrainedSamples, c3.TrainedSamples, want, periodSteps, n)
	}
}

func TestReportStringsAndModeBits(t *testing.T) {
	if (C1 | C2).String() != "c1|c2" {
		t.Errorf("mode string = %q", (C1 | C2).String())
	}
	if ModeNone.String() != "none" {
		t.Errorf("none string = %q", ModeNone.String())
	}
	if !C1.Has(C1) || C1.Has(C2) {
		t.Error("Has is wrong")
	}
}

// periodOK unwraps Adapter.Period on fixtures whose repairs cannot fail.
func periodOK(t *testing.T, ad *Adapter, arrivals []Arrival) Report {
	t.Helper()
	rep, err := ad.Period(arrivals)
	if err != nil {
		t.Fatalf("Period: %v", err)
	}
	return rep
}
