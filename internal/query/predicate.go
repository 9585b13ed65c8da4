// Package query defines the predicate classes the paper's CE models support
// (§2): conjunctions of per-column range checks
//
//	SELECT count(*) FROM T WHERE ⋀_i l_i ≤ Col_i ≤ u_i
//
// plus key–foreign-key join queries for the MSCN join experiments. Equality
// predicates set l_i = u_i; one-sided ranges pin the open end to the column
// min or max; untouched columns span the full column range.
package query

import (
	"fmt"
	"math"

	"warper/internal/dataset"
)

// Schema captures the per-column metadata needed to normalize and featurize
// predicates against a table: value ranges and column types.
type Schema struct {
	Table string
	Names []string
	Types []dataset.ColType
	Mins  []float64
	Maxs  []float64
}

// SchemaOf snapshots a table's schema, including current column ranges.
func SchemaOf(t *dataset.Table) *Schema {
	mins, maxs := t.Ranges()
	s := &Schema{Table: t.Name, Mins: mins, Maxs: maxs}
	for _, c := range t.Cols {
		s.Names = append(s.Names, c.Name)
		s.Types = append(s.Types, c.Type)
	}
	return s
}

// NumCols returns the number of columns in the schema.
func (s *Schema) NumCols() int { return len(s.Names) }

// FeatureDim returns the featurization width, 2·d.
func (s *Schema) FeatureDim() int { return 2 * len(s.Names) }

// Predicate is a conjunctive range predicate over every column of one table,
// in raw column units. len(Lows) == len(Highs) == d.
type Predicate struct {
	Lows  []float64
	Highs []float64
}

// NewFullRange returns the predicate that matches every row: each column
// spans [min, max].
func NewFullRange(s *Schema) Predicate {
	p := Predicate{Lows: make([]float64, s.NumCols()), Highs: make([]float64, s.NumCols())}
	copy(p.Lows, s.Mins)
	copy(p.Highs, s.Maxs)
	return p
}

// Clone deep-copies the predicate.
func (p Predicate) Clone() Predicate {
	q := Predicate{Lows: make([]float64, len(p.Lows)), Highs: make([]float64, len(p.Highs))}
	copy(q.Lows, p.Lows)
	copy(q.Highs, p.Highs)
	return q
}

// Dim returns the number of columns constrained by the predicate.
func (p Predicate) Dim() int { return len(p.Lows) }

// SetRange constrains column i to [lo, hi]; lo == hi is an equality
// (l_i = u_i per §2).
func (p Predicate) SetRange(i int, lo, hi float64) {
	p.Lows[i] = lo
	p.Highs[i] = hi
}

// Matches reports whether the row satisfies every range check.
func (p Predicate) Matches(row []float64) bool {
	for i, v := range row {
		if v < p.Lows[i] || v > p.Highs[i] {
			return false
		}
	}
	return true
}

// Normalize clamps the predicate into the schema's column ranges and swaps
// any inverted bounds so that low ≤ high holds everywhere. It returns the
// predicate for chaining.
func (p Predicate) Normalize(s *Schema) Predicate {
	NormalizeBounds(s, p.Lows, p.Highs)
	return p
}

// NormalizeBounds is Normalize in place over flat bound blocks: lows and
// highs hold consecutive predicates' bounds, s.NumCols() words per
// predicate (the wire frame's block layout), so a whole frame normalizes in
// one pass. The builtin min/max compile inline and agree with
// math.Max/math.Min bit for bit on every non-NaN input, ±0 included.
func NormalizeBounds(s *Schema, lows, highs []float64) {
	mins, maxs := s.Mins, s.Maxs
	c := 0
	for k, lo := range lows {
		hi := highs[k]
		if lo > hi {
			lo, hi = hi, lo
		}
		mn, mx := mins[c], maxs[c]
		lo = max(lo, mn)
		hi = min(hi, mx)
		if lo > hi { // disjoint from the column range; pin to an empty point
			lo = mathClamp(lo, mn, mx)
			hi = lo
		}
		lows[k], highs[k] = lo, hi
		if c++; c == len(mins) {
			c = 0
		}
	}
}

// Featurize converts the predicate to the LM layout
// {low₁..low_d, high₁..high_d} with each bound scaled into [0,1] by the
// column range (§3.2, §4.1). Constant columns map to 0.
func (p Predicate) Featurize(s *Schema) []float64 {
	f := make([]float64, 2*p.Dim())
	p.FeaturizeInto(s, f)
	return f
}

// FeaturizeInto writes the Featurize layout into f, which must have length
// 2·d. It performs no allocation, so batched serving paths can reuse one
// feature buffer across requests.
func (p Predicate) FeaturizeInto(s *Schema, f []float64) {
	d := p.Dim()
	if d != s.NumCols() {
		panic(fmt.Sprintf("query: predicate dim %d vs schema %d", d, s.NumCols()))
	}
	if len(f) != 2*d {
		panic(fmt.Sprintf("query: feature buffer len %d vs 2·%d", len(f), d))
	}
	for i := 0; i < d; i++ {
		span := s.Maxs[i] - s.Mins[i]
		if span <= 0 {
			f[i], f[d+i] = 0, 0
			continue
		}
		f[i] = mathClamp((p.Lows[i]-s.Mins[i])/span, 0, 1)
		f[d+i] = mathClamp((p.Highs[i]-s.Mins[i])/span, 0, 1)
	}
}

// Unfeaturize is the inverse of Featurize: it maps a feature vector (any real
// values; they are clamped into [0,1]) back to a normalized predicate. The
// generator 𝔾 emits feature-space vectors which this converts into
// well-formed predicates.
func Unfeaturize(f []float64, s *Schema) Predicate {
	d := s.NumCols()
	p := Predicate{Lows: make([]float64, d), Highs: make([]float64, d)}
	UnfeaturizeInto(f, s, p)
	return p
}

// UnfeaturizeInto is Unfeaturize into the bounds of p, which must have the
// schema's dimension. It performs no allocation, so a training loop can
// reuse one predicate per throw-away sample.
func UnfeaturizeInto(f []float64, s *Schema, p Predicate) {
	d := s.NumCols()
	if len(f) != 2*d {
		panic(fmt.Sprintf("query: feature len %d vs 2·%d", len(f), d))
	}
	if p.Dim() != d {
		panic(fmt.Sprintf("query: predicate dim %d vs schema %d", p.Dim(), d))
	}
	for i := 0; i < d; i++ {
		span := s.Maxs[i] - s.Mins[i]
		lo := s.Mins[i] + float64(mathClamp(f[i], 0, 1)*span)
		hi := s.Mins[i] + float64(mathClamp(f[d+i], 0, 1)*span)
		if s.Types[i] == dataset.Categorical {
			lo = math.Round(lo)
			hi = math.Round(hi)
		}
		p.Lows[i], p.Highs[i] = lo, hi
	}
	p.Normalize(s)
}

func mathClamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Labeled pairs a predicate with its ground-truth cardinality; the basic
// training example for workload-driven CE models.
type Labeled struct {
	Pred Predicate
	Card float64
}
