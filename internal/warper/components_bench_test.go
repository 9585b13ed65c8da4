package warper

import (
	"testing"

	"warper/internal/ce"
	"warper/internal/pool"
	"warper/internal/workload"
)

// ganFixture builds Table 3 sized components (DefaultConfig: three hidden
// FC-128 layers, minibatch 32) over a small pool with a new workload, warmed
// up so every arena has reached its steady-state size.
func ganFixture(tb testing.TB) (*components, *pool.Pool, []*pool.Entry) {
	tb.Helper()
	env := newTestEnvTB(tb, 400, 60)
	p := env.seededPool(60)
	c := newComponents(DefaultConfig(), env.sch, env.tbl.NumRows(), env.rng)
	c.UpdateAutoEncoder(p, 1)
	c.EmbedAll(p)
	newEntries := p.BySource(pool.SrcNew)
	for i := 0; i < 3; i++ {
		c.ganIteration(p, newEntries)
	}
	return c, p, newEntries
}

// BenchmarkGANIteration is one update_MultiTask round at the paper's sizes:
// an autoencoder step, a discriminator step and a generator step. Steady
// state must report 0 allocs/op.
func BenchmarkGANIteration(b *testing.B) {
	c, p, newEntries := ganFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ganIteration(p, newEntries)
	}
}

// TestGANIterationSteadyStateAllocs pins the step arena: once warmed up, a
// full aeStep + discStep + genStep round and the noise-scale computation
// allocate nothing.
func TestGANIterationSteadyStateAllocs(t *testing.T) {
	c, p, newEntries := ganFixture(t)
	if n := testing.AllocsPerRun(10, func() { c.ganIteration(p, newEntries) }); n != 0 {
		t.Errorf("ganIteration allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { c.embeddingStd(newEntries) }); n != 0 {
		t.Errorf("embeddingStd allocates %v times per run, want 0", n)
	}
}

// BenchmarkWarperPeriod is one full adaptation period (detect → generate →
// pick → annotate → update) over ten fresh labeled w4 arrivals, on a
// 250-query LM-mlp and Hidden-64 components.
func BenchmarkWarperPeriod(b *testing.B) {
	env := newTestEnvTB(b, 250, 0)
	lm := ce.NewLM(ce.LMMLP, env.sch, 1)
	if err := lm.Train(env.train); err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Hidden = 64
	cfg.Depth = 2
	cfg.NIters = 30
	cfg.Gamma = 200
	cfg.PickSize = 100
	ad, err := New(cfg, lm, env.sch, env.ann, env.train)
	if err != nil {
		b.Fatal(err)
	}
	gNew := workload.New("w4", env.tbl, env.sch, workload.Options{MaxConstrained: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fresh := annAllT(b, env.ann, workload.Generate(gNew, 10, env.rng))
		if _, err := ad.Period(arrivalsOf(fresh, true)); err != nil {
			b.Fatal(err)
		}
	}
}
