package warper

import (
	"context"
	"math/rand"
	"testing"

	"warper/internal/annotator"
	"warper/internal/dataset"
	"warper/internal/drift"
	"warper/internal/pool"
	"warper/internal/query"
	"warper/internal/workload"
)

// testEnv builds a PRSA-like table with train (w1) and new (w4) workloads.
type testEnv struct {
	tbl   *dataset.Table
	sch   *query.Schema
	ann   *annotator.Annotator
	train []query.Labeled
	newQ  []query.Labeled
	rng   *rand.Rand
}

func newTestEnv(t *testing.T, nTrain, nNew int) *testEnv {
	t.Helper()
	return newTestEnvTB(t, nTrain, nNew)
}

func newTestEnvTB(t testing.TB, nTrain, nNew int) *testEnv {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	tbl := dataset.PRSA(3000, rng)
	sch := query.SchemaOf(tbl)
	ann := annotator.New(tbl)
	gTrain := workload.New("w1", tbl, sch, workload.Options{MaxConstrained: 2})
	gNew := workload.New("w4", tbl, sch, workload.Options{MaxConstrained: 2})
	return &testEnv{
		tbl: tbl, sch: sch, ann: ann,
		train: annAllT(t, ann, workload.Generate(gTrain, nTrain, rng)),
		newQ:  annAllT(t, ann, workload.Generate(gNew, nNew, rng)),
		rng:   rng,
	}
}

func (env *testEnv) seededPool(nNew int) *pool.Pool {
	p := pool.InitFromTraining(env.train)
	for i := 0; i < nNew && i < len(env.newQ); i++ {
		p.AddNew(env.newQ[i].Pred, env.newQ[i].Card, true)
	}
	return p
}

func smallCfg() Config {
	c := DefaultConfig()
	c.Hidden = 32
	c.Depth = 2
	c.EmbedDim = 8
	c.NIters = 40
	c.Gamma = 100
	c.PickSize = 100
	return c
}

func TestAutoEncoderLossDecreases(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	env := newTestEnv(t, 200, 0)
	p := env.seededPool(0)
	cfg := smallCfg()
	c := newComponents(cfg, env.sch, env.tbl.NumRows(), env.rng)
	first := c.UpdateAutoEncoder(p, 1)
	var last float64
	for i := 0; i < 15; i++ {
		last = c.UpdateAutoEncoder(p, 1)
	}
	if last >= first {
		t.Errorf("AE loss did not decrease: first=%v last=%v", first, last)
	}
}

func TestEmbeddingsHaveConfiguredDim(t *testing.T) {
	env := newTestEnv(t, 50, 10)
	p := env.seededPool(10)
	cfg := smallCfg()
	c := newComponents(cfg, env.sch, env.tbl.NumRows(), env.rng)
	c.EmbedAll(p)
	for _, e := range p.Entries {
		if len(e.Z) != cfg.EmbedDim {
			t.Fatalf("embedding dim = %d, want %d", len(e.Z), cfg.EmbedDim)
		}
	}
}

func TestGeneratedPredicatesAreValid(t *testing.T) {
	env := newTestEnv(t, 150, 50)
	p := env.seededPool(50)
	cfg := smallCfg()
	c := newComponents(cfg, env.sch, env.tbl.NumRows(), env.rng)
	c.UpdateMultiTask(p, 30)
	preds := c.Generate(p, 40)
	if len(preds) != 40 {
		t.Fatalf("generated %d", len(preds))
	}
	for _, pr := range preds {
		for i := range pr.Lows {
			if pr.Lows[i] > pr.Highs[i] {
				t.Fatal("generated predicate with inverted range")
			}
			if pr.Lows[i] < env.sch.Mins[i]-1e-9 || pr.Highs[i] > env.sch.Maxs[i]+1e-9 {
				t.Fatal("generated predicate out of schema range")
			}
		}
	}
}

func TestGenerateFromEmptyNewWorkload(t *testing.T) {
	env := newTestEnv(t, 50, 0)
	p := env.seededPool(0)
	c := newComponents(smallCfg(), env.sch, env.tbl.NumRows(), env.rng)
	if preds := c.Generate(p, 10); preds != nil {
		t.Errorf("expected nil, got %d predicates", len(preds))
	}
}

func TestGANGeneratedResemblesNewWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	// After GAN training, generated queries should be closer (in δ_js) to
	// the new workload than the training workload is.
	env := newTestEnv(t, 300, 120)
	p := env.seededPool(120)
	cfg := DefaultConfig() // the shrunken test config underfits this check
	cfg.NIters = 120
	c := newComponents(cfg, env.sch, env.tbl.NumRows(), env.rng)
	c.UpdateAutoEncoder(p, 60) // offline pre-train
	c.UpdateMultiTask(p, cfg.NIters)
	gen := c.Generate(p, 200)

	var newPreds, trainPreds []query.Predicate
	for _, lq := range env.newQ {
		newPreds = append(newPreds, lq.Pred)
	}
	for _, lq := range env.train {
		trainPreds = append(trainPreds, lq.Pred)
	}
	jsGenNew := drift.DeltaJS(gen, newPreds, env.sch, drift.DefaultJSConfig())
	jsTrainNew := drift.DeltaJS(trainPreds, newPreds, env.sch, drift.DefaultJSConfig())
	if jsGenNew >= jsTrainNew {
		t.Errorf("generated workload no closer to new: δ(gen,new)=%v δ(train,new)=%v", jsGenNew, jsTrainNew)
	}
}

func TestDiscriminatorLearnsSourceClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	env := newTestEnv(t, 300, 120)
	p := env.seededPool(120)
	cfg := smallCfg()
	cfg.NIters = 100
	c := newComponents(cfg, env.sch, env.tbl.NumRows(), env.rng)
	c.UpdateAutoEncoder(p, 5)
	c.UpdateMultiTask(p, cfg.NIters)
	c.EmbedAll(p)
	c.ClassifyAll(p.Entries)
	// The discriminator should separate train from new better than chance.
	correct, total := 0, 0
	for _, e := range p.Entries {
		if e.Source == pool.SrcTrain || e.Source == pool.SrcNew {
			total++
			if e.PredSource == e.Source {
				correct++
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.5 {
		t.Errorf("discriminator accuracy = %v on train/new, want >= 0.5", acc)
	}
}

func TestClassifySetsConfidence(t *testing.T) {
	env := newTestEnv(t, 60, 20)
	p := env.seededPool(20)
	c := newComponents(smallCfg(), env.sch, env.tbl.NumRows(), env.rng)
	for _, e := range p.Entries {
		e.Conf = -1
	}
	c.ClassifyAll(p.Entries) // embeds the entries first: none has a z yet
	for _, e := range p.Entries {
		if len(e.Z) != c.embedDim {
			t.Fatal("ClassifyAll left an entry without an embedding")
		}
		if e.Conf < 0 || e.Conf > 1 {
			t.Fatalf("confidence not stored or out of range: %v", e.Conf)
		}
	}
}

func TestEncoderUsesGTWhenAvailable(t *testing.T) {
	env := newTestEnv(t, 10, 0)
	c := newComponents(smallCfg(), env.sch, env.tbl.NumRows(), env.rng)
	with := &pool.Entry{Pred: env.train[0].Pred, GT: env.train[0].Card, Source: pool.SrcTrain}
	without := &pool.Entry{Pred: env.train[0].Pred, GT: pool.NoGT, Source: pool.SrcTrain}
	c.embedEntries([]*pool.Entry{with, without})
	same := true
	for i := range with.Z {
		if with.Z[i] != without.Z[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("embedding ignores the ground-truth input")
	}
}

func annAllT(t testing.TB, ann *annotator.Annotator, ps []query.Predicate) []query.Labeled {
	t.Helper()
	out, err := ann.AnnotateAll(context.Background(), ps)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
