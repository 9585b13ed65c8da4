package warper

import (
	"context"
	"math"
	"math/rand"
	"slices"
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
	first := c.UpdateAutoEncoder(p, epochSteps(p, 1))
	var last float64
	for i := 0; i < 15; i++ {
		last = c.UpdateAutoEncoder(p, epochSteps(p, 1))
	}
	if last >= first {
		t.Errorf("AE loss did not decrease: first=%v last=%v", first, last)
	}
}

func TestEmbeddingsHaveConfiguredDim(t *testing.T) {
	env := newTestEnv(t, 50, 10)
	p := env.seededPool(10)
	c := newComponents(smallCfg(), env.sch, env.tbl.NumRows(), env.rng)
	c.embedEntries(p.Entries)
	for _, e := range p.Entries {
		if len(e.Z) != embedDim {
			t.Fatalf("embedding dim = %d, want %d", len(e.Z), embedDim)
		}
	}
}

func TestGeneratedPredicatesAreValid(t *testing.T) {
	env := newTestEnv(t, 150, 50)
	p := env.seededPool(50)
	cfg := smallCfg()
	c := newComponents(cfg, env.sch, env.tbl.NumRows(), env.rng)
	c.UpdateAutoEncoder(p, epochSteps(p, 2))
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

// TestGenerateIgnoresOtherEmbeddings: Generate reads only the embeddings of
// the new entries it seeds from, and refreshes those itself. A pool whose
// training and generated entries carry garbage embeddings — NaN values, a
// wrong length — must generate the same bits as an unpoisoned twin whose
// every entry was embedded by the current 𝔼, from the same seed.
func TestGenerateIgnoresOtherEmbeddings(t *testing.T) {
	env := newTestEnv(t, 150, 50)
	generate := func(poison bool) []query.Predicate {
		p := env.seededPool(50)
		for _, lq := range env.newQ[:20] {
			p.AddGenerated(lq.Pred)
		}
		c := newComponents(smallCfg(), env.sch, env.tbl.NumRows(), rand.New(rand.NewSource(7)))
		c.UpdateAutoEncoder(p, epochSteps(p, 2))
		c.embedEntries(p.Entries)
		if poison {
			for i, e := range p.Entries {
				switch {
				case e.Source == pool.SrcNew:
				case i%2 == 0:
					e.Z = make([]float64, embedDim)
					for d := range e.Z {
						e.Z[d] = math.NaN()
					}
				default:
					e.Z = []float64{1, 2, 3}
				}
			}
		}
		return c.Generate(p, 40)
	}
	clean, poisoned := generate(false), generate(true)
	bits := func(ps []query.Predicate) []uint64 {
		var out []uint64
		for _, p := range ps {
			for i := range p.Lows {
				out = append(out, math.Float64bits(p.Lows[i]), math.Float64bits(p.Highs[i]))
			}
		}
		return out
	}
	if len(clean) != 40 || !slices.Equal(bits(clean), bits(poisoned)) {
		t.Errorf("poisoned training/generated embeddings changed Generate's output (%d vs %d predicates)", len(clean), len(poisoned))
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

// TestGeneratedResemblesNewWorkload runs the adapter's schedule — offline
// pre-training on 𝕀train, then one period's autoencoder steps over the pool
// with the new arrivals in it — and checks that 𝔾's decodes of noisy
// new-workload embeddings sit closer (in δ_js) to the new workload than the
// training workload does.
func TestGeneratedResemblesNewWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("training-heavy; skipped under -short (race pass)")
	}
	env := newTestEnv(t, 300, 120)
	p := env.seededPool(0)
	c := newComponents(DefaultConfig(), env.sch, env.tbl.NumRows(), env.rng)
	c.UpdateAutoEncoder(p, epochSteps(p, 60)) // offline pre-train
	for _, lq := range env.newQ {
		p.AddNew(lq.Pred, lq.Card, true)
	}
	c.UpdateAutoEncoder(p, periodSteps)
	gen := c.Generate(p, 200)

	var newPreds, trainPreds []query.Predicate
	for _, lq := range env.newQ {
		newPreds = append(newPreds, lq.Pred)
	}
	for _, lq := range env.train {
		trainPreds = append(trainPreds, lq.Pred)
	}
	jsGenNew := drift.DeltaJS(gen, newPreds, env.sch)
	jsTrainNew := drift.DeltaJS(trainPreds, newPreds, env.sch)
	if jsGenNew >= jsTrainNew {
		t.Errorf("generated workload no closer to new: δ(gen,new)=%v δ(train,new)=%v", jsGenNew, jsTrainNew)
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
