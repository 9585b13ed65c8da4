package warper

import (
	"math/rand"
	"slices"
	"testing"

	"warper/internal/pool"
	"warper/internal/query"
)

func genEntry() *pool.Entry {
	return &pool.Entry{
		Pred:   query.Predicate{Lows: []float64{0}, Highs: []float64{1}},
		GT:     pool.NoGT,
		Source: pool.SrcGen,
	}
}

// TestPickGeneratedIsUniform pins the pick every mode runs: candidates
// drawn uniformly with replacement, then deduplicated — the same draws as
// sampleEntries from the same RNG state.
func TestPickGeneratedIsUniform(t *testing.T) {
	cands := []*pool.Entry{genEntry(), genEntry(), genEntry(), genEntry()}
	want := dedup(sampleEntries(cands, 6, rand.New(rand.NewSource(1))))
	if got := pickUniform(cands, 6, rand.New(rand.NewSource(1))); !slices.Equal(got, want) {
		t.Errorf("pickUniform = %v, uniform = %v", got, want)
	}
}

func TestPickGeneratedEmptyAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	if got := pickUniform(nil, 5, rng); got != nil {
		t.Error("expected nil for no candidates")
	}
	if got := pickUniform([]*pool.Entry{genEntry()}, 0, rng); got != nil {
		t.Error("expected nil for zero pick count")
	}
}

func TestPickGeneratedDeduplicates(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e := genEntry()
	picked := pickUniform([]*pool.Entry{e}, 50, rng)
	if len(picked) != 1 {
		t.Errorf("picked %d entries from a single candidate", len(picked))
	}
}

// TestPickRandomStrategy: the random pick returns distinct candidates only.
func TestPickRandomStrategy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cands := []*pool.Entry{genEntry(), genEntry(), genEntry()}
	picked := pickUniform(cands, 10, rng)
	if len(picked) == 0 || len(picked) > 3 {
		t.Errorf("random pick returned %d", len(picked))
	}
	for i, e := range picked {
		if !slices.Contains(cands, e) || slices.Contains(picked[:i], e) {
			t.Errorf("pick %d is not a distinct candidate", i)
		}
	}
}

// TestPickDrawsEachModesCandidates pins Table 2's candidate sets: c2 draws
// generated entries and adds every unlabeled new one, c1 draws training
// entries, c3 unlabeled new entries, and c4 picks nothing.
func TestPickDrawsEachModesCandidates(t *testing.T) {
	p := pool.New()
	pred := query.Predicate{Lows: []float64{0}, Highs: []float64{1}}
	for i := 0; i < 4; i++ {
		p.Entries = append(p.Entries,
			&pool.Entry{Pred: pred, GT: 10, Source: pool.SrcTrain},
			&pool.Entry{Pred: pred, GT: pool.NoGT, Source: pool.SrcGen},
			&pool.Entry{Pred: pred, GT: 10, Source: pool.SrcNew},
			&pool.Entry{Pred: pred, GT: pool.NoGT, Source: pool.SrcNew})
	}
	a := &Adapter{Cfg: Config{PickSize: 20}, Pool: p, rng: rand.New(rand.NewSource(5))}
	unlabeledNew := func(e *pool.Entry) bool { return e.Source == pool.SrcNew && !e.HasGT() }
	for _, c := range []struct {
		mode Mode
		ok   func(*pool.Entry) bool
	}{
		{C2, func(e *pool.Entry) bool { return e.Source == pool.SrcGen || unlabeledNew(e) }},
		{C1, func(e *pool.Entry) bool { return e.Source == pool.SrcTrain }},
		{C3, unlabeledNew},
	} {
		picked := a.pick(c.mode)
		if len(picked) == 0 {
			t.Errorf("%v picked nothing", c.mode)
		}
		for _, e := range picked {
			if !c.ok(e) {
				t.Errorf("%v picked a %v entry (labeled %v)", c.mode, e.Source, e.HasGT())
			}
		}
	}
	if got := a.pick(C2); len(slices.DeleteFunc(got, func(e *pool.Entry) bool { return !unlabeledNew(e) })) != 4 {
		t.Errorf("c2 did not add every unlabeled new entry")
	}
	if got := a.pick(C4); got != nil {
		t.Errorf("c4 picked %d entries", len(got))
	}
}
