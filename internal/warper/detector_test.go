package warper

import (
	"context"
	"math/rand"
	"testing"

	"warper/internal/annotator"
	"warper/internal/ce"
	"warper/internal/drift"
	"warper/internal/query"
	"warper/internal/workload"
)

// detFixture builds a detector with controlled thresholds over the shared
// test environment.
func detFixture(t *testing.T, gamma int) (*testEnv, *detector) {
	t.Helper()
	env := newTestEnv(t, 300, 0)
	var trainPreds []query.Predicate
	for _, lq := range env.train {
		trainPreds = append(trainPreds, lq.Pred)
	}
	cfg := DefaultConfig()
	cfg.JSThreshold = 0.08
	d := &detector{
		cfg:        cfg,
		sch:        env.sch,
		telemetry:  &drift.DataTelemetry{},
		trainPreds: trainPreds,
		trainGMQ:   1.5,
		pi:         initialPi,
		gamma:      gamma,
	}
	return env, d
}

func TestDetectNoArrivalsNoDrift(t *testing.T) {
	env, d := detFixture(t, 100)
	det := detectOK(t, d, nil, nil, env.trainedModel(t), env.ann, 0)
	if det.Mode != ModeNone {
		t.Errorf("mode = %v, want none", det.Mode)
	}
}

// trainedModel returns a real model trained in-distribution so δ_m is small
// for same-workload arrivals.
func (env *testEnv) trainedModel(t *testing.T) *mockModel {
	t.Helper()
	// Answer with the training-set median cardinality: error is moderate
	// everywhere, letting tests control δ_m purely via trainGMQ.
	var sum float64
	for _, lq := range env.train {
		sum += lq.Card
	}
	return &mockModel{v: sum / float64(len(env.train))}
}

type mockModel struct{ v float64 }

func (m *mockModel) Train([]query.Labeled) error      { return nil }
func (m *mockModel) Update([]query.Labeled) error     { return nil }
func (m *mockModel) Estimate(query.Predicate) float64 { return m.v }
func (m *mockModel) Policy() ce.UpdatePolicy          { return ce.FineTune }
func (m *mockModel) Clone() ce.Estimator              { return &mockModel{v: m.v} }
func (m *mockModel) Name() string                     { return "mock" }

func TestDetectC2OnScarceDriftedArrivals(t *testing.T) {
	env, d := detFixture(t, 500)
	gNew := workload.New("w4", env.tbl, env.sch, workload.Options{MaxConstrained: 2})
	rng := rand.New(rand.NewSource(9))
	var arrivals []Arrival
	for i := 0; i < 60; i++ {
		p := gNew.Gen(rng)
		arrivals = append(arrivals, Arrival{Pred: p, GT: countOK(t, env.ann, p), HasGT: true})
	}
	det := detectOK(t, d, arrivals, nil, env.trainedModel(t), env.ann, 0)
	if !det.Mode.Has(C2) {
		t.Errorf("mode = %v (δm=%.2f δjs=%.2f), want c2", det.Mode, det.DeltaM, det.DeltaJS)
	}
	if det.NT != 60 || det.NA != 60 {
		t.Errorf("counts: nt=%d na=%d", det.NT, det.NA)
	}
}

func TestDetectC4WhenAdequate(t *testing.T) {
	env, d := detFixture(t, 30)
	gNew := workload.New("w4", env.tbl, env.sch, workload.Options{MaxConstrained: 2})
	rng := rand.New(rand.NewSource(10))
	var arrivals []Arrival
	for i := 0; i < 60; i++ {
		p := gNew.Gen(rng)
		arrivals = append(arrivals, Arrival{Pred: p, GT: countOK(t, env.ann, p), HasGT: true})
	}
	det := detectOK(t, d, arrivals, nil, env.trainedModel(t), env.ann, 0)
	if !det.Mode.Has(C4) || det.Mode.Has(C2) {
		t.Errorf("mode = %v, want c4 only", det.Mode)
	}
}

func TestDetectC3WhenLabelsMissing(t *testing.T) {
	env, d := detFixture(t, 30)
	gNew := workload.New("w4", env.tbl, env.sch, workload.Options{MaxConstrained: 2})
	rng := rand.New(rand.NewSource(11))
	var arrivals []Arrival
	for i := 0; i < 60; i++ {
		arrivals = append(arrivals, Arrival{Pred: gNew.Gen(rng)})
	}
	det := detectOK(t, d, arrivals, nil, env.trainedModel(t), env.ann, 0)
	if !det.Mode.Has(C3) {
		t.Errorf("mode = %v, want c3", det.Mode)
	}
	if det.NA != 0 {
		t.Errorf("na = %d, want 0", det.NA)
	}
}

func TestDetectDataDriftSuppressesDeltaMWorkloadFlag(t *testing.T) {
	env, d := detFixture(t, 500)
	d.trainGMQ = 0.0 // any error reads as a huge δ_m gap
	// Same workload as training, labels present, telemetry says data drift.
	rng := rand.New(rand.NewSource(12))
	gTrain := workload.New("w1", env.tbl, env.sch, workload.Options{MaxConstrained: 2})
	var arrivals []Arrival
	for i := 0; i < 40; i++ {
		p := gTrain.Gen(rng)
		arrivals = append(arrivals, Arrival{Pred: p, GT: countOK(t, env.ann, p), HasGT: true})
	}
	det := detectOK(t, d, arrivals, nil, env.trainedModel(t), env.ann, 0.5 /* changed rows */)
	if !det.Mode.Has(C1) || !det.FreshC1 {
		t.Fatalf("mode = %v, want fresh c1", det.Mode)
	}
	if det.Mode.Has(C2) || det.Mode.Has(C4) {
		t.Errorf("mode = %v: δ_m during a data drift must not flag a workload drift", det.Mode)
	}
}

func TestDetectPendingC1Persists(t *testing.T) {
	env, d := detFixture(t, 500)
	d.pendingC1 = true
	det := detectOK(t, d, nil, nil, env.trainedModel(t), env.ann, 0)
	if !det.Mode.Has(C1) {
		t.Errorf("mode = %v, want pending c1", det.Mode)
	}
	if det.FreshC1 {
		t.Error("pending continuation must not be marked fresh")
	}
}

// countOK unwraps annotator.Count for fixture predicates.
func countOK(t *testing.T, ann *annotator.Annotator, p query.Predicate) float64 {
	t.Helper()
	c, err := ann.Count(context.Background(), p)
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	return c
}

// detectOK unwraps detector.detect on healthy fixtures.
func detectOK(t *testing.T, d *detector, arrivals []Arrival, recent []query.Labeled, m ce.Estimator, ann *annotator.Annotator, changed float64) Detection {
	t.Helper()
	det, err := d.detect(context.Background(), arrivals, recent, m, ann, changed)
	if err != nil {
		t.Fatalf("detect: %v", err)
	}
	return det
}
