package ce

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"warper/internal/annotator"
	"warper/internal/dataset"
	"warper/internal/query"
	"warper/internal/workload"
)

// fixture builds a PRSA-like table with a labeled train/test split from w1.
func fixture(t testing.TB, nTrain, nTest int) (*dataset.Table, *query.Schema, []query.Labeled, []query.Labeled) {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	tbl := dataset.PRSA(4000, rng)
	sch := query.SchemaOf(tbl)
	g := workload.New("w1", tbl, sch, workload.Options{MaxConstrained: 2})
	ann := annotator.New(tbl)
	train := annAll(t, ann, workload.Generate(g, nTrain, rng))
	test := annAll(t, ann, workload.Generate(g, nTest, rng))
	return tbl, sch, train, test
}

func TestCardTargetRoundTrip(t *testing.T) {
	for _, c := range []float64{0, 1, 10, 1234, 1e6} {
		got := targetToCard(cardToTarget(c))
		if math.Abs(got-c) > 1e-6*(1+c) {
			t.Errorf("round trip %v -> %v", c, got)
		}
	}
	if targetToCard(-100) != 0 {
		t.Error("negative targets must clamp to 0")
	}
}

func TestLMMLPLearnsWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	_, sch, train, test := fixture(t, 800, 150)
	lm := NewLM(LMMLP, sch, 1)
	trainOK(t, lm, train)
	gmq := EvalGMQ(lm, test)
	if gmq > 4.0 {
		t.Errorf("LM-mlp in-distribution GMQ = %v, want < 4", gmq)
	}
	if lm.Policy() != FineTune || lm.Name() != "lm-mlp" {
		t.Error("metadata wrong")
	}
}

func TestLMGBTLearnsWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	_, sch, train, test := fixture(t, 600, 150)
	lm := NewLM(LMGBT, sch, 2)
	trainOK(t, lm, train)
	if gmq := EvalGMQ(lm, test); gmq > 5.0 {
		t.Errorf("LM-gbt GMQ = %v, want < 5", gmq)
	}
	if lm.Policy() != Retrain {
		t.Error("GBT should be a re-train model")
	}
}

func TestLMKernelVariantsLearnWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	_, sch, train, test := fixture(t, 600, 150)
	for _, v := range []LMVariant{LMPly, LMRBF} {
		lm := NewLM(v, sch, 3)
		trainOK(t, lm, train)
		if gmq := EvalGMQ(lm, test); gmq > 8.0 {
			t.Errorf("%s GMQ = %v, want < 8", v, gmq)
		}
		if lm.Policy() != Retrain {
			t.Errorf("%s should be a re-train model", v)
		}
	}
}

func TestLMFineTuneImprovesOnDriftedWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	rng := rand.New(rand.NewSource(7))
	tbl := dataset.PRSA(4000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	gTrain := workload.New("w1", tbl, sch, workload.Options{MaxConstrained: 2})
	gNew := workload.New("w3", tbl, sch, workload.Options{MaxConstrained: 2})
	train := annAll(t, ann, workload.Generate(gTrain, 800, rng))
	newQ := annAll(t, ann, workload.Generate(gNew, 400, rng))
	testQ := annAll(t, ann, workload.Generate(gNew, 150, rng))

	lm := NewLM(LMMLP, sch, 4)
	trainOK(t, lm, train)
	before := EvalGMQ(lm, testQ)
	for i := 0; i < 3; i++ {
		updateOK(t, lm, newQ)
	}
	after := EvalGMQ(lm, testQ)
	if after >= before {
		t.Errorf("fine-tuning did not improve: before=%v after=%v", before, after)
	}
}

func TestLMCloneIsIndependent(t *testing.T) {
	_, sch, train, test := fixture(t, 300, 50)
	lm := NewLM(LMMLP, sch, 5)
	trainOK(t, lm, train)
	clone := lm.Clone()
	before := EvalGMQ(clone, test)
	updateOK(t, lm, train[:100])
	after := EvalGMQ(clone, test)
	if before != after {
		t.Error("clone shares weights with original")
	}
}

func TestUnknownVariantPanics(t *testing.T) {
	_, sch, _, _ := fixture(t, 1, 1)
	// A name from outside the program is an error, not a panic: every
	// variant NewLM builds parses from its own string, nothing else does.
	for _, v := range []LMVariant{LMMLP, LMGBT, LMPly, LMRBF} {
		if got, err := ParseLMVariant(string(v)); err != nil || got != v {
			t.Errorf("ParseLMVariant(%q) = %q, %v", v, got, err)
		}
	}
	if _, err := ParseLMVariant("lm-nope"); err == nil {
		t.Error("ParseLMVariant accepted an unknown name")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLM("lm-nope", sch, 0)
}

func TestMSCNSingleTableLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	_, sch, train, test := fixture(t, 600, 150)
	m := NewMSCN(NewCatalog(sch), 6)
	trainOK(t, m, train)
	if gmq := EvalGMQ(m, test); gmq > 5.0 {
		t.Errorf("MSCN single-table GMQ = %v, want < 5", gmq)
	}
	if m.Policy() != FineTune || m.Name() != "mscn" {
		t.Error("metadata wrong")
	}
}

func joinFixture(t *testing.T) (*annotator.JoinAnnotator, *Catalog, []query.LabeledJoin, []query.LabeledJoin) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	// Orders with keys, lineitem with FK fanout.
	nOrders := 400
	okey := make([]float64, nOrders)
	total := make([]float64, nOrders)
	for i := range okey {
		okey[i] = float64(i)
		total[i] = rng.Float64() * 1000
	}
	orders := dataset.NewTable("orders",
		&dataset.Column{Name: "okey", Type: dataset.Real, Vals: okey},
		&dataset.Column{Name: "total", Type: dataset.Real, Vals: total},
	)
	nLine := 2000
	lkey := make([]float64, nLine)
	qty := make([]float64, nLine)
	for i := range lkey {
		lkey[i] = float64(rng.Intn(nOrders))
		qty[i] = rng.Float64() * 50
	}
	lineitem := dataset.NewTable("lineitem",
		&dataset.Column{Name: "okey", Type: dataset.Real, Vals: lkey},
		&dataset.Column{Name: "qty", Type: dataset.Real, Vals: qty},
	)
	ja := annotator.NewJoin(orders, lineitem)
	so, sl := query.SchemaOf(orders), query.SchemaOf(lineitem)
	cat := NewCatalog(sl, so).AddJoin("lineitem", "okey", "orders", "okey")

	gen := func(n int) []query.LabeledJoin {
		var qs []*query.JoinQuery
		for i := 0; i < n; i++ {
			q := query.NewJoinQuery("lineitem", "orders").AddJoin("lineitem", "okey", "orders", "okey")
			pl := query.NewFullRange(sl)
			lo := rng.Float64() * 50
			hi := lo + rng.Float64()*(50-lo)
			pl.SetRange(1, lo, hi)
			q.SetPred("lineitem", pl.Normalize(sl))
			po := query.NewFullRange(so)
			lo2 := rng.Float64() * 1000
			hi2 := lo2 + rng.Float64()*(1000-lo2)
			po.SetRange(1, lo2, hi2)
			q.SetPred("orders", po.Normalize(so))
			qs = append(qs, q)
		}
		out, err := ja.AnnotateAll(context.Background(), qs)
		if err != nil {
			t.Fatalf("AnnotateAll: %v", err)
		}
		return out
	}
	return ja, cat, gen(500), gen(100)
}

func TestMSCNJoinLearns(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	_, cat, train, test := joinFixture(t)
	m := NewMSCN(cat, 7)
	if err := m.TrainJoin(train); err != nil {
		t.Fatalf("TrainJoin: %v", err)
	}
	if gmq := joinGMQOK(t, m, test); gmq > 6.0 {
		t.Errorf("MSCN join GMQ = %v, want < 6", gmq)
	}
}

func TestMSCNUpdateImproves(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	_, cat, train, test := joinFixture(t)
	m := NewMSCN(cat, 8)
	if err := m.TrainJoin(train[:50]); err != nil { // deliberately undertrained
		t.Fatalf("TrainJoin: %v", err)
	}
	before := joinGMQOK(t, m, test)
	for i := 0; i < 5; i++ {
		if err := m.UpdateJoin(train); err != nil {
			t.Fatalf("UpdateJoin: %v", err)
		}
	}
	after := joinGMQOK(t, m, test)
	if after >= before {
		t.Errorf("UpdateJoin did not improve: before=%v after=%v", before, after)
	}
}

func TestMSCNUnknownTableError(t *testing.T) {
	_, sch, _, _ := fixture(t, 1, 1)
	m := NewMSCN(NewCatalog(sch), 9)
	q := query.NewJoinQuery("ghost")
	if _, err := m.EstimateJoin(q); err == nil {
		t.Fatal("expected error for unknown table")
	}
}

func TestMSCNSingleTableAPIRequiresOneTable(t *testing.T) {
	_, cat, _, _ := joinFixture(t)
	m := NewMSCN(cat, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Estimate(query.Predicate{Lows: []float64{0}, Highs: []float64{1}})
}

func TestEvalGMQPerfectEstimator(t *testing.T) {
	_, _, train, _ := fixture(t, 20, 0)
	e := perfect{m: map[string]float64{}}
	for _, ex := range train {
		e.m[key(ex.Pred)] = ex.Card
	}
	if gmq := EvalGMQ(e, train); gmq != 1 {
		t.Errorf("perfect estimator GMQ = %v, want 1", gmq)
	}
}

type perfect struct{ m map[string]float64 }

func key(p query.Predicate) string {
	s := ""
	for i := range p.Lows {
		s += string(rune(int(p.Lows[i]*7)%96+32)) + string(rune(int(p.Highs[i]*13)%96+32))
	}
	return s
}

func (p perfect) Train([]query.Labeled) error        { return nil }
func (p perfect) Update([]query.Labeled) error       { return nil }
func (p perfect) Estimate(q query.Predicate) float64 { return p.m[key(q)] }
func (p perfect) Policy() UpdatePolicy               { return FineTune }
func (p perfect) Clone() Estimator                   { return p }
func (p perfect) Name() string                       { return "perfect" }

// trainOK/updateOK unwrap Train/Update in tests, where fits succeed by
// construction.
func trainOK(t *testing.T, m Estimator, ex []query.Labeled) {
	t.Helper()
	if err := m.Train(ex); err != nil {
		t.Fatalf("Train: %v", err)
	}
}

func updateOK(t *testing.T, m Estimator, ex []query.Labeled) {
	t.Helper()
	if err := m.Update(ex); err != nil {
		t.Fatalf("Update: %v", err)
	}
}

func joinGMQOK(t *testing.T, m *MSCN, test []query.LabeledJoin) float64 {
	t.Helper()
	gmq, err := EvalJoinGMQ(m, test)
	if err != nil {
		t.Fatalf("EvalJoinGMQ: %v", err)
	}
	return gmq
}

func annAll(t testing.TB, ann *annotator.Annotator, ps []query.Predicate) []query.Labeled {
	t.Helper()
	out, err := ann.AnnotateAll(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
