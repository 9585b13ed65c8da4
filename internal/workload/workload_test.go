package workload

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"warper/internal/dataset"
	"warper/internal/query"
)

func testTable(t *testing.T) (*dataset.Table, *query.Schema) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	tbl := dataset.PRSA(2000, rng)
	return tbl, query.SchemaOf(tbl)
}

func TestAllGeneratorsProduceValidPredicates(t *testing.T) {
	tbl, sch := testTable(t)
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []string{"w1", "w2", "w3", "w4", "w5"} {
		g := New(kind, tbl, sch, Options{})
		if g.Name() != kind {
			t.Errorf("Name = %q, want %q", g.Name(), kind)
		}
		for i := 0; i < 200; i++ {
			p := g.Gen(rng)
			if p.Dim() != sch.NumCols() {
				t.Fatalf("%s: dim = %d", kind, p.Dim())
			}
			for c := 0; c < p.Dim(); c++ {
				if p.Lows[c] > p.Highs[c] {
					t.Fatalf("%s: inverted range at col %d: [%v,%v]", kind, c, p.Lows[c], p.Highs[c])
				}
				if p.Lows[c] < sch.Mins[c]-1e-9 || p.Highs[c] > sch.Maxs[c]+1e-9 {
					t.Fatalf("%s: out-of-range bounds at col %d", kind, c)
				}
			}
		}
	}
}

func TestConstrainedColumnCounts(t *testing.T) {
	tbl, sch := testTable(t)
	rng := rand.New(rand.NewSource(2))
	g := New("w1", tbl, sch, Options{MinConstrained: 2, MaxConstrained: 2})
	for i := 0; i < 50; i++ {
		p := g.Gen(rng)
		constrained := 0
		for c := 0; c < p.Dim(); c++ {
			if p.Lows[c] > sch.Mins[c] || p.Highs[c] < sch.Maxs[c] {
				constrained++
			}
		}
		// w1 draws bounds uniformly, so both bounds exactly hitting the
		// column limits has probability ~0; require exactly 2.
		if constrained != 2 {
			t.Fatalf("constrained %d columns, want 2", constrained)
		}
	}
}

func TestW2SkewsLow(t *testing.T) {
	// On a column with a wide positive range, w2 bound midpoints should sit
	// far below w1's.
	tbl, sch := testTable(t)
	rng := rand.New(rand.NewSource(3))
	opts := Options{MinConstrained: 1, MaxConstrained: 1}
	mid := func(g Generator) float64 {
		var s float64
		var n int
		for i := 0; i < 2000; i++ {
			p := g.Gen(rng)
			c := tbl.ColIndex("pm25") // wide, positive range
			if p.Lows[c] > sch.Mins[c] || p.Highs[c] < sch.Maxs[c] {
				s += (p.Lows[c] + p.Highs[c]) / 2
				n++
			}
		}
		return s / float64(n)
	}
	m1 := mid(New("w1", tbl, sch, opts))
	m2 := mid(New("w2", tbl, sch, opts))
	if m2 >= m1*0.8 {
		t.Errorf("w2 midpoint %v not clearly below w1 midpoint %v", m2, m1)
	}
}

func TestW3CentersOnData(t *testing.T) {
	// w3 ranges should contain at least one actual data value far more often
	// than w1 on a skewed column.
	tbl, sch := testTable(t)
	rng := rand.New(rand.NewSource(4))
	opts := Options{MinConstrained: 1, MaxConstrained: 1}
	hitRate := func(g Generator) float64 {
		hits := 0
		const trials = 300
		for i := 0; i < trials; i++ {
			p := g.Gen(rng)
			row := make([]float64, sch.NumCols())
			found := false
			for r := 0; r < tbl.NumRows() && !found; r++ {
				if p.Matches(tbl.Row(r, row)) {
					found = true
				}
			}
			if found {
				hits++
			}
		}
		return float64(hits) / trials
	}
	h3 := hitRate(New("w3", tbl, sch, opts))
	if h3 < 0.9 {
		t.Errorf("w3 hit rate = %v, want >= 0.9 (ranges centered on rows)", h3)
	}
}

func TestW4WidthGrowsWithSample(t *testing.T) {
	tbl, sch := testTable(t)
	rng := rand.New(rand.NewSource(5))
	g := New("w4", tbl, sch, Options{MinConstrained: 1, MaxConstrained: 1}).(*W4)
	g.MaxSample = 3
	narrow := avgWidth(g, sch, rng, 500)
	g2 := New("w4", tbl, sch, Options{MinConstrained: 1, MaxConstrained: 1}).(*W4)
	g2.MaxSample = 200
	wide := avgWidth(g2, sch, rng, 500)
	if narrow >= wide {
		t.Errorf("w4 width with k<=3 (%v) should be below k<=200 (%v)", narrow, wide)
	}
}

func avgWidth(g Generator, sch *query.Schema, rng *rand.Rand, n int) float64 {
	var s float64
	var cnt int
	for i := 0; i < n; i++ {
		p := g.Gen(rng)
		for c := 0; c < p.Dim(); c++ {
			span := sch.Maxs[c] - sch.Mins[c]
			if span <= 0 {
				continue
			}
			w := (p.Highs[c] - p.Lows[c]) / span
			if w < 1-1e-9 { // constrained column
				s += w
				cnt++
			}
		}
	}
	return s / float64(cnt)
}

func TestMixtureDrawsFromAllComponents(t *testing.T) {
	tbl, sch := testTable(t)
	rng := rand.New(rand.NewSource(6))
	opts := Options{MinConstrained: 1, MaxConstrained: 1}
	m := NewMixture(New("w1", tbl, sch, opts), New("w3", tbl, sch, opts))
	if m.Name() != "mix(w1+w3)" {
		t.Errorf("Name = %q", m.Name())
	}
	// Just exercise generation; component choice is random.
	for i := 0; i < 100; i++ {
		p := m.Gen(rng)
		if p.Dim() != sch.NumCols() {
			t.Fatal("bad predicate from mixture")
		}
	}
}

func TestParseSpecs(t *testing.T) {
	tbl, sch := testTable(t)
	if g := Parse("w1", tbl, sch, Options{}); g.Name() != "w1" {
		t.Errorf("Parse(w1) = %q", g.Name())
	}
	if g := Parse("w12", tbl, sch, Options{}); g.Name() != "mix(w1+w2)" {
		t.Errorf("Parse(w12) = %q", g.Name())
	}
	if g := Parse("w345", tbl, sch, Options{}); g.Name() != "mix(w3+w4+w5)" {
		t.Errorf("Parse(w345) = %q", g.Name())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad spec")
		}
	}()
	Parse("w9", tbl, sch, Options{})
}

func TestGenerateCount(t *testing.T) {
	tbl, sch := testTable(t)
	rng := rand.New(rand.NewSource(7))
	ps := Generate(New("w1", tbl, sch, Options{}), 25, rng)
	if len(ps) != 25 {
		t.Errorf("Generate returned %d", len(ps))
	}
}

func TestScheduleSequencing(t *testing.T) {
	tbl, sch := testTable(t)
	opts := Options{}
	g1 := New("w1", tbl, sch, opts)
	g2 := New("w2", tbl, sch, opts)
	entered := 0
	sched := NewSchedule(
		Phase{Gen: g1, Periods: 3},
		Phase{Gen: g2, Periods: 2, OnEnter: func(*dataset.Table, *rand.Rand) { entered++ }},
	)
	if sched.TotalPeriods() != 5 {
		t.Errorf("TotalPeriods = %d", sched.TotalPeriods())
	}
	p, first := sched.PhaseAt(0)
	if p.Gen.Name() != "w1" || !first {
		t.Error("period 0 wrong")
	}
	p, first = sched.PhaseAt(2)
	if p.Gen.Name() != "w1" || first {
		t.Error("period 2 wrong")
	}
	p, first = sched.PhaseAt(3)
	if p.Gen.Name() != "w2" || !first {
		t.Error("period 3 wrong")
	}
	// Past the end, the last phase persists without re-entering.
	p, first = sched.PhaseAt(99)
	if p.Gen.Name() != "w2" || first {
		t.Error("period 99 wrong")
	}
	if entered != 0 {
		t.Error("OnEnter should not fire from PhaseAt")
	}
}

func TestW5OversamplesRareValues(t *testing.T) {
	// Build a table where value 0 dominates and value 100 is rare; w5 should
	// center on the rare value far more often than its base rate.
	vals := make([]float64, 1000)
	for i := 900; i < 1000; i++ {
		vals[i] = 100
	}
	tbl := dataset.NewTable("skew", &dataset.Column{Name: "x", Type: dataset.Real, Vals: vals})
	sch := query.SchemaOf(tbl)
	rng := rand.New(rand.NewSource(8))
	g := New("w5", tbl, sch, Options{MinConstrained: 1, MaxConstrained: 1})
	nearRare := 0
	const trials = 500
	for i := 0; i < trials; i++ {
		p := g.Gen(rng)
		mid := (p.Lows[0] + p.Highs[0]) / 2
		if math.Abs(mid-100) < 30 {
			nearRare++
		}
	}
	// Base rate of the rare value is 10%; stratified sampling should push it
	// well above that.
	if float64(nearRare)/trials < 0.25 {
		t.Errorf("w5 centered near rare value only %d/%d times", nearRare, trials)
	}
}

// TestW5SameSeedSameStream: two w5 generators over one table draw identical
// predicate streams from one seed. The frequency strata are built from a
// map, so keys of equal frequency must be ordered by key, not by iteration
// order — otherwise every experiment whose spec contains w5 prints different
// numbers on every run.
func TestW5SameSeedSameStream(t *testing.T) {
	tbl, sch := testTable(t)
	want := Generate(New("w5", tbl, sch, Options{}), 300, rand.New(rand.NewSource(1)))
	for run := 0; run < 4; run++ {
		got := Generate(New("w5", tbl, sch, Options{}), 300, rand.New(rand.NewSource(1)))
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("run %d: predicate %d differs from the first stream:\n got %v\nwant %v", run, i, got[i], want[i])
			}
		}
	}
}
