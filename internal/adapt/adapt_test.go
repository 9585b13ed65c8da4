package adapt

import (
	"context"
	"math/rand"
	"testing"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/dataset"
	"warper/internal/metrics"
	"warper/internal/query"
	"warper/internal/warper"
	"warper/internal/workload"
)

type env struct {
	tbl   *dataset.Table
	sch   *query.Schema
	ann   *annotator.Annotator
	train []query.Labeled
	newQ  []query.Labeled
	test  []query.Labeled
}

func newEnv(t *testing.T) *env {
	t.Helper()
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	rng := rand.New(rand.NewSource(77))
	tbl := dataset.PRSA(3000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	gTrain := workload.New("w1", tbl, sch, workload.Options{MaxConstrained: 2})
	gNew := workload.New("w4", tbl, sch, workload.Options{MaxConstrained: 2})
	return &env{
		tbl: tbl, sch: sch, ann: ann,
		train: annAll(t, ann, workload.Generate(gTrain, 500, rng)),
		newQ:  annAll(t, ann, workload.Generate(gNew, 300, rng)),
		test:  annAll(t, ann, workload.Generate(gNew, 120, rng)),
	}
}

func (e *env) trainedLM(seed int64) *ce.LM {
	lm := ce.NewLM(ce.LMMLP, e.sch, seed)
	if err := lm.Train(e.train); err != nil {
		panic("test fixture train failed: " + err.Error())
	}
	return lm
}

func TestFTImprovesOnNewWorkload(t *testing.T) {
	e := newEnv(t)
	ft := NewFT(e.trainedLM(1), e.train)
	if ft.Name() != "FT" {
		t.Errorf("Name = %q", ft.Name())
	}
	r := &Runner{Test: e.test}
	curve := runOK(t, r, ft, SplitPeriods(ArrivalsOf(e.newQ, true), 60))
	if curve.Final() >= curve.Initial() {
		t.Errorf("FT curve did not improve: %v -> %v", curve.Initial(), curve.Final())
	}
	if ft.AnnotationsSpent() != 0 {
		t.Error("FT must not spend annotations")
	}
}

func TestFTSkipsUnlabeledPeriods(t *testing.T) {
	e := newEnv(t)
	lm := e.trainedLM(3)
	before := ce.EvalGMQ(lm, e.test)
	ft := NewFT(lm, e.train)
	if err := ft.Step(ArrivalsOf(e.newQ[:50], false)); err != nil { // no labels → no update
		t.Fatalf("Step: %v", err)
	}
	if after := ce.EvalGMQ(lm, e.test); after != before {
		t.Error("FT updated the model without labels")
	}
}

func TestMIXUsesTrainingQueries(t *testing.T) {
	e := newEnv(t)
	mix := NewMIX(e.trainedLM(4), e.train, 9)
	r := &Runner{Test: e.test}
	curve := runOK(t, r, mix, SplitPeriods(ArrivalsOf(e.newQ, true), 60))
	if curve.Final() >= curve.Initial() {
		t.Errorf("MIX did not improve: %v -> %v", curve.Initial(), curve.Final())
	}
	if mix.AnnotationsSpent() != 0 {
		t.Error("MIX must not spend annotations")
	}
}

func TestAUGSpendsAnnotationsAndImproves(t *testing.T) {
	e := newEnv(t)
	aug := NewAUG(e.trainedLM(5), e.sch, e.ann, e.train, 10)
	r := &Runner{Test: e.test}
	curve := runOK(t, r, aug, SplitPeriods(ArrivalsOf(e.newQ, true), 60))
	// This model seed starts with a small drift gap; require only that AUG
	// does not materially degrade the model while it spends annotations.
	if curve.Final() > curve.Initial()*1.1 {
		t.Errorf("AUG degraded the model: %v -> %v", curve.Initial(), curve.Final())
	}
	if aug.AnnotationsSpent() == 0 {
		t.Error("AUG should annotate synthetic queries")
	}
	// n_g = 10% of n_t.
	want := 0
	for _, p := range SplitPeriods(ArrivalsOf(e.newQ, true), 60) {
		want += len(p) / 10
	}
	if aug.AnnotationsSpent() != want {
		t.Errorf("AUG spent %d annotations, want %d", aug.AnnotationsSpent(), want)
	}
}

func TestAUGNoisyStaysValid(t *testing.T) {
	e := newEnv(t)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 100; i++ {
		p := Noisy(e.newQ[i%len(e.newQ)].Pred, e.sch, rng)
		for c := range p.Lows {
			if p.Lows[c] > p.Highs[c] || p.Lows[c] < e.sch.Mins[c]-1e-9 || p.Highs[c] > e.sch.Maxs[c]+1e-9 {
				t.Fatal("Noisy produced invalid predicate")
			}
		}
	}
}

func TestHEMAnnotatesUnlabeledAndReplicatesHard(t *testing.T) {
	e := newEnv(t)
	hem := NewHEM(e.trainedLM(7), e.sch, e.ann, e.train, 12)
	if err := hem.Step(ArrivalsOf(e.newQ[:40], false)); err != nil { // unlabeled → must annotate
		t.Fatalf("Step: %v", err)
	}
	if hem.AnnotationsSpent() < 40 {
		t.Errorf("HEM spent %d annotations, want >= 40", hem.AnnotationsSpent())
	}
	r := &Runner{Test: e.test}
	curve := runOK(t, r, hem, SplitPeriods(ArrivalsOf(e.newQ[40:], true), 60))
	if curve.Final() >= curve.Initial() {
		t.Errorf("HEM did not improve: %v -> %v", curve.Initial(), curve.Final())
	}
}

func TestWarperMethodIntegration(t *testing.T) {
	e := newEnv(t)
	lm := e.trainedLM(8)
	cfg := warper.DefaultConfig()
	cfg.Hidden = 64
	cfg.Depth = 2
	cfg.Gamma = 150
	cfg.PickSize = 150
	ad, err := warper.New(cfg, lm, e.sch, e.ann, e.train)
	if err != nil {
		t.Fatalf("warper.New: %v", err)
	}
	wm := NewWarper(ad)
	if wm.Name() != "Warper" {
		t.Errorf("Name = %q", wm.Name())
	}
	r := &Runner{Test: e.test}
	curve := runOK(t, r, wm, SplitPeriods(ArrivalsOf(e.newQ, true), 60))
	if curve.Final() >= curve.Initial() {
		t.Errorf("Warper did not improve: %v -> %v", curve.Initial(), curve.Final())
	}
	if wm.AnnotationsSpent() == 0 {
		t.Error("Warper should have labeled generated/new entries")
	}
}

// TestWarperAnnotationsSpentCountsRequests: AnnotationsSpent is the sum of
// what the periods requested, Report.Annotated. A c2 period's labeled
// arrivals came for free and do not count; the training queries a c1 period
// re-annotates do.
func TestWarperAnnotationsSpentCountsRequests(t *testing.T) {
	e := newEnv(t)
	cfg := warper.DefaultConfig()
	cfg.Hidden = 64
	cfg.Depth = 2
	cfg.Gamma = 150
	cfg.PickSize = 150
	cfg.AnnotateBudget = 20
	ad, err := warper.New(cfg, e.trainedLM(8), e.sch, e.ann, e.train)
	if err != nil {
		t.Fatalf("warper.New: %v", err)
	}
	wm := NewWarper(ad)

	rng := rand.New(rand.NewSource(5))
	g1 := workload.New("w1", e.tbl, e.sch, workload.Options{MaxConstrained: 2})
	unlabeled := make([]warper.Arrival, 60)
	for i := range unlabeled {
		unlabeled[i] = warper.Arrival{Pred: g1.Gen(rng)}
	}
	sum := 0
	for i, step := range []struct {
		want     warper.Mode
		arrivals []warper.Arrival
		drift    func()
	}{
		{warper.C2, ArrivalsOf(e.newQ[:60], true), func() {}},
		{warper.C1, unlabeled, func() { dataset.SortTruncateHalf(e.tbl, 0) }},
	} {
		step.drift()
		if err := wm.Step(step.arrivals); err != nil {
			t.Fatalf("period %d: %v", i+1, err)
		}
		rep := wm.Reports[i]
		if rep.Detection.Mode != step.want {
			t.Fatalf("period %d: mode %v, want %v", i+1, rep.Detection.Mode, step.want)
		}
		if rep.Annotated == 0 {
			t.Errorf("period %d (%v) annotated nothing", i+1, rep.Detection.Mode)
		}
		sum += rep.Annotated
		if got := wm.AnnotationsSpent(); got != sum {
			t.Errorf("after period %d (%v): AnnotationsSpent %d, reports sum to %d", i+1, rep.Detection.Mode, got, sum)
		}
	}
}

func TestSplitPeriods(t *testing.T) {
	arr := make([]warper.Arrival, 10)
	ps := SplitPeriods(arr, 4)
	if len(ps) != 3 || len(ps[0]) != 4 || len(ps[2]) != 2 {
		t.Errorf("SplitPeriods shape wrong: %d periods", len(ps))
	}
	if got := SplitPeriods(arr, 0); len(got) != 10 {
		t.Errorf("zero period size should default to 1, got %d periods", len(got))
	}
}

func TestArrivalsOf(t *testing.T) {
	e := newEnv(t)
	withGT := ArrivalsOf(e.newQ[:5], true)
	withoutGT := ArrivalsOf(e.newQ[:5], false)
	for i := range withGT {
		if !withGT[i].HasGT || withGT[i].GT != e.newQ[i].Card {
			t.Error("labels lost")
		}
		if withoutGT[i].HasGT {
			t.Error("labels leaked")
		}
	}
}

// runOK unwraps Runner.Run for methods that cannot fail on the fixture.
func runOK(t *testing.T, r *Runner, m Method, periods [][]warper.Arrival) *metrics.Curve {
	t.Helper()
	c, err := r.Run(m, periods)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return c
}

func annAll(t *testing.T, ann *annotator.Annotator, ps []query.Predicate) []query.Labeled {
	t.Helper()
	out, err := ann.AnnotateAll(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
