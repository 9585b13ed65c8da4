package query

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"warper/internal/dataset"
)

func testSchema() *Schema {
	return &Schema{
		Table: "t",
		Names: []string{"a", "b", "c"},
		Types: []dataset.ColType{dataset.Real, dataset.Real, dataset.Categorical},
		Mins:  []float64{0, -10, 0},
		Maxs:  []float64{100, 10, 4},
	}
}

func TestNewFullRangeMatchesEverything(t *testing.T) {
	s := testSchema()
	p := NewFullRange(s)
	if !p.Matches([]float64{0, -10, 0}) || !p.Matches([]float64{100, 10, 4}) || !p.Matches([]float64{50, 0, 2}) {
		t.Error("full range must match all in-range rows")
	}
}

func TestMatchesBounds(t *testing.T) {
	s := testSchema()
	p := NewFullRange(s)
	p.SetRange(0, 10, 20)
	if p.Matches([]float64{9.99, 0, 2}) || p.Matches([]float64{20.01, 0, 2}) {
		t.Error("out-of-range row matched")
	}
	if !p.Matches([]float64{10, 0, 2}) || !p.Matches([]float64{20, 0, 2}) {
		t.Error("boundary rows must match (inclusive ranges)")
	}
}

func TestNormalizeSwapsAndClamps(t *testing.T) {
	s := testSchema()
	p := NewFullRange(s)
	p.SetRange(0, 80, 20)   // inverted
	p.SetRange(1, -50, 500) // out of range
	p = p.Normalize(s)
	if p.Lows[0] != 20 || p.Highs[0] != 80 {
		t.Errorf("swap failed: [%v,%v]", p.Lows[0], p.Highs[0])
	}
	if p.Lows[1] != -10 || p.Highs[1] != 10 {
		t.Errorf("clamp failed: [%v,%v]", p.Lows[1], p.Highs[1])
	}
}

func TestNormalizeDisjointRange(t *testing.T) {
	s := testSchema()
	p := NewFullRange(s)
	p.SetRange(0, 200, 300) // entirely above column max
	p = p.Normalize(s)
	if p.Lows[0] != p.Highs[0] {
		t.Errorf("disjoint range should become a point: [%v,%v]", p.Lows[0], p.Highs[0])
	}
	if p.Lows[0] < 0 || p.Lows[0] > 100 {
		t.Errorf("pinned point out of range: %v", p.Lows[0])
	}
}

// normalizeOracle is Normalize's one-column formula as written with
// math.Max/math.Min, kept as the reference the builtin min/max must match.
func normalizeOracle(lo, hi, mn, mx float64) (float64, float64) {
	if lo > hi {
		lo, hi = hi, lo
	}
	lo = math.Max(lo, mn)
	hi = math.Min(hi, mx)
	if lo > hi {
		lo = mathClamp(lo, mn, mx)
		hi = lo
	}
	return lo, hi
}

// sameBits is bit equality, except that any NaN matches any NaN.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestNormalizeMatchesMathMaxMin pins Normalize and NormalizeBounds to the
// math.Max/math.Min formula bit for bit over every (low, high) pair of a
// value set holding ±0, ±Inf, subnormals, the column bounds themselves and
// values below, inside and above each column — so equal, inverted and
// disjoint-below/above bounds all occur — on columns whose minimum is +0,
// -0 and subnormal, and on a constant column. A NaN bound stays NaN.
func TestNormalizeMatchesMathMaxMin(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sub := math.SmallestNonzeroFloat64
	s := &Schema{
		Names: []string{"pos0", "neg0", "sub", "const", "wide"},
		Mins:  []float64{0, negZero, -sub, 3, -10},
		Maxs:  []float64{100, 1, 4 * sub, 3, 10},
	}
	vals := []float64{
		math.Inf(-1), -1e300, -10, -3, -sub, negZero, 0, sub, 2 * sub, 4 * sub,
		0.5, 1, 3, 10, 100, 1e300, math.Inf(1), math.NaN(),
	}
	d := s.NumCols()
	var lows, highs []float64
	for _, lo := range vals {
		for _, hi := range vals {
			for c := 0; c < d; c++ {
				lows, highs = append(lows, lo), append(highs, hi)
			}
		}
	}
	rawLows, rawHighs := append([]float64(nil), lows...), append([]float64(nil), highs...)

	NormalizeBounds(s, lows, highs)
	for k := range lows {
		c := k % d
		wantLo, wantHi := normalizeOracle(rawLows[k], rawHighs[k], s.Mins[c], s.Maxs[c])
		if !sameBits(lows[k], wantLo) || !sameBits(highs[k], wantHi) {
			t.Fatalf("col %q [%v, %v]: NormalizeBounds = [%v, %v], math.Max/Min = [%v, %v]",
				s.Names[c], rawLows[k], rawHighs[k], lows[k], highs[k], wantLo, wantHi)
		}
		if math.IsNaN(rawLows[k]) && !math.IsNaN(lows[k]) || math.IsNaN(rawHighs[k]) && !math.IsNaN(highs[k]) {
			t.Fatalf("col %q [%v, %v]: NaN in, [%v, %v] out", s.Names[c], rawLows[k], rawHighs[k], lows[k], highs[k])
		}
	}
	// Normalize is the same pass over one predicate's bounds.
	for row := 0; row < len(rawLows); row += d {
		p := Predicate{Lows: append([]float64(nil), rawLows[row:row+d]...), Highs: append([]float64(nil), rawHighs[row:row+d]...)}
		p = p.Normalize(s)
		for c := 0; c < d; c++ {
			if !sameBits(p.Lows[c], lows[row+c]) || !sameBits(p.Highs[c], highs[row+c]) {
				t.Fatalf("row %d col %d: Normalize = [%v, %v], NormalizeBounds = [%v, %v]",
					row/d, c, p.Lows[c], p.Highs[c], lows[row+c], highs[row+c])
			}
		}
	}
}

func TestFeaturizeLayout(t *testing.T) {
	s := testSchema()
	p := NewFullRange(s)
	p.SetRange(0, 25, 75)
	f := p.Featurize(s)
	if len(f) != 6 {
		t.Fatalf("feature len = %d", len(f))
	}
	if math.Abs(f[0]-0.25) > 1e-12 || math.Abs(f[3]-0.75) > 1e-12 {
		t.Errorf("col 0 features = %v, %v", f[0], f[3])
	}
	// Full-range columns featurize to [0,1].
	if f[1] != 0 || f[4] != 1 {
		t.Errorf("col 1 features = %v, %v", f[1], f[4])
	}
}

// FeaturizeInto is the zero-allocation path behind Featurize; the two must
// agree bit for bit on arbitrary predicates.
func TestFeaturizeIntoMatchesFeaturize(t *testing.T) {
	s := testSchema()
	rng := rand.New(rand.NewSource(8))
	buf := make([]float64, 2*len(s.Names))
	for i := 0; i < 200; i++ {
		p := NewFullRange(s)
		for c := range s.Names {
			span := s.Maxs[c] - s.Mins[c]
			p.SetRange(c, s.Mins[c]+rng.Float64()*span, s.Mins[c]+rng.Float64()*span)
		}
		p = p.Normalize(s)
		want := p.Featurize(s)
		p.FeaturizeInto(s, buf)
		for j := range want {
			if buf[j] != want[j] {
				t.Fatalf("pred %d feature %d: FeaturizeInto = %v, Featurize = %v", i, j, buf[j], want[j])
			}
		}
	}
}

func TestFeaturizeIntoBadBufferPanics(t *testing.T) {
	s := testSchema()
	p := NewFullRange(s)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.FeaturizeInto(s, make([]float64, 3)) // needs 6
}

func TestFeaturizeDimMismatchPanics(t *testing.T) {
	s := testSchema()
	p := Predicate{Lows: []float64{0}, Highs: []float64{1}}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Featurize(s)
}

func TestUnfeaturizeRoundTrip(t *testing.T) {
	s := testSchema()
	p := NewFullRange(s)
	p.SetRange(0, 10, 60)
	p.SetRange(1, -5, 5)
	p.SetRange(2, 2, 2)
	q := Unfeaturize(p.Featurize(s), s)
	for i := range p.Lows {
		if math.Abs(q.Lows[i]-p.Lows[i]) > 1e-9 || math.Abs(q.Highs[i]-p.Highs[i]) > 1e-9 {
			t.Errorf("col %d: got [%v,%v], want [%v,%v]", i, q.Lows[i], q.Highs[i], p.Lows[i], p.Highs[i])
		}
	}
}

func TestUnfeaturizeRoundsCategoricals(t *testing.T) {
	s := testSchema()
	f := make([]float64, 6)
	f[2] = 0.6 // low of categorical col with range [0,4] → 2.4 → rounds to 2
	f[5] = 0.6
	p := Unfeaturize(f, s)
	if p.Lows[2] != 2 || p.Highs[2] != 2 {
		t.Errorf("categorical bounds = [%v,%v], want [2,2]", p.Lows[2], p.Highs[2])
	}
}

// Property: Unfeaturize always produces a predicate that is already
// normalized (low ≤ high, inside schema bounds), for arbitrary feature input.
func TestUnfeaturizeAlwaysNormalized(t *testing.T) {
	s := testSchema()
	f := func(raw [6]float64) bool {
		feats := raw[:]
		for i, v := range feats {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				feats[i] = 0.5
			}
		}
		p := Unfeaturize(feats, s)
		for i := range p.Lows {
			if p.Lows[i] > p.Highs[i] {
				return false
			}
			if p.Lows[i] < s.Mins[i]-1e-9 || p.Highs[i] > s.Maxs[i]+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}

// Property: normalization is idempotent.
func TestNormalizeIdempotent(t *testing.T) {
	s := testSchema()
	f := func(raw [6]float64) bool {
		p := Predicate{Lows: make([]float64, 3), Highs: make([]float64, 3)}
		for i := 0; i < 3; i++ {
			lo, hi := raw[i], raw[3+i]
			if math.IsNaN(lo) || math.IsInf(lo, 0) {
				lo = 0
			}
			if math.IsNaN(hi) || math.IsInf(hi, 0) {
				hi = 1
			}
			p.Lows[i], p.Highs[i] = lo, hi
		}
		once := p.Clone().Normalize(s)
		twice := once.Clone().Normalize(s)
		for i := 0; i < 3; i++ {
			if once.Lows[i] != twice.Lows[i] || once.Highs[i] != twice.Highs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Error(err)
	}
}

func TestSchemaOf(t *testing.T) {
	tbl := dataset.NewTable("x",
		&dataset.Column{Name: "u", Type: dataset.Real, Vals: []float64{2, 8, 5}},
		&dataset.Column{Name: "v", Type: dataset.Categorical, Vals: []float64{0, 1, 1}},
	)
	s := SchemaOf(tbl)
	if s.Table != "x" || s.NumCols() != 2 || s.FeatureDim() != 4 {
		t.Fatalf("schema = %+v", s)
	}
	if s.Mins[0] != 2 || s.Maxs[0] != 8 {
		t.Errorf("ranges = %v %v", s.Mins, s.Maxs)
	}
	if s.Types[1] != dataset.Categorical {
		t.Error("type not preserved")
	}
}

func TestJoinQueryBuilders(t *testing.T) {
	j := NewJoinQuery("l", "o").AddJoin("l", "orderkey", "o", "orderkey")
	s := testSchema()
	j.SetPred("l", NewFullRange(s))
	if len(j.Tables) != 2 || len(j.Joins) != 1 || len(j.Preds) != 1 {
		t.Fatalf("join query = %+v", j)
	}
	c := j.Clone()
	c.Preds["l"].Lows[0] = 99
	if j.Preds["l"].Lows[0] == 99 {
		t.Error("Clone aliases predicates")
	}
}
