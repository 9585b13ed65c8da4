// Package workload implements the five predicate-generation methods from
// Table 5 of the paper (w1–w5), mixtures of them (the paper's "w12/345"
// notation means training on a w1+w2 mixture and drifting to a w3+w4+w5
// mixture), and drift schedules for the continuous-drift experiments.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"warper/internal/dataset"
	"warper/internal/query"
)

// Generator produces random predicates from one workload distribution.
type Generator interface {
	Gen(rng *rand.Rand) query.Predicate
	Name() string
}

// Options tunes the shared behaviour of the w1–w5 generators.
type Options struct {
	// MaxConstrained caps how many columns a predicate constrains; the rest
	// span the full column range (§2). Defaults to 3.
	MaxConstrained int
	// MinConstrained floors the constrained-column count. Defaults to 1.
	MinConstrained int
}

func (o Options) withDefaults() Options {
	if o.MaxConstrained <= 0 {
		o.MaxConstrained = 3
	}
	if o.MinConstrained <= 0 {
		o.MinConstrained = 1
	}
	if o.MinConstrained > o.MaxConstrained {
		o.MinConstrained = o.MaxConstrained
	}
	return o
}

// base carries the table, schema and options shared by all generators.
type base struct {
	tbl  *dataset.Table
	sch  *query.Schema
	opts Options
}

// pickCols selects which columns this predicate constrains.
func (b *base) pickCols(rng *rand.Rand) []int {
	d := b.sch.NumCols()
	k := b.opts.MinConstrained
	if span := b.opts.MaxConstrained - b.opts.MinConstrained; span > 0 {
		k += rng.Intn(span + 1)
	}
	if k > d {
		k = d
	}
	perm := rng.Perm(d)
	cols := perm[:k]
	sort.Ints(cols)
	return cols
}

// W1 draws {low, high} from r(C) uniformly at random.
type W1 struct{ base }

// Gen implements Generator.
func (w *W1) Gen(rng *rand.Rand) query.Predicate {
	p := query.NewFullRange(w.sch)
	for _, c := range w.pickCols(rng) {
		lo := w.sch.Mins[c] + rng.Float64()*(w.sch.Maxs[c]-w.sch.Mins[c])
		hi := w.sch.Mins[c] + rng.Float64()*(w.sch.Maxs[c]-w.sch.Mins[c])
		p.SetRange(c, lo, hi)
	}
	return p.Normalize(w.sch)
}

// Name implements Generator.
func (w *W1) Name() string { return "w1" }

// W2 draws bounds from a logarithmic transform of r(C): uniform in log-space,
// which concentrates predicates near the low end of each column.
type W2 struct{ base }

// Gen implements Generator.
func (w *W2) Gen(rng *rand.Rand) query.Predicate {
	p := query.NewFullRange(w.sch)
	for _, c := range w.pickCols(rng) {
		lo := w.logDraw(c, rng)
		hi := w.logDraw(c, rng)
		p.SetRange(c, lo, hi)
	}
	return p.Normalize(w.sch)
}

func (w *W2) logDraw(c int, rng *rand.Rand) float64 {
	mn, mx := w.sch.Mins[c], w.sch.Maxs[c]
	off := 1 - mn // shift so the range starts at 1 for the log transform
	llo, lhi := math.Log(mn+off), math.Log(mx+off)
	u := llo + rng.Float64()*(lhi-llo)
	return math.Exp(u) - off
}

// Name implements Generator.
func (w *W2) Name() string { return "w2" }

// W3 centers each range on a uniformly sampled data row and adds a random
// width drawn from r(C) — predicates follow the data distribution.
type W3 struct{ base }

// Gen implements Generator.
func (w *W3) Gen(rng *rand.Rand) query.Predicate {
	p := query.NewFullRange(w.sch)
	r := rng.Intn(w.tbl.NumRows())
	for _, c := range w.pickCols(rng) {
		center := w.tbl.Cols[c].Vals[r]
		width := rng.Float64() * (w.sch.Maxs[c] - w.sch.Mins[c]) * 0.5
		p.SetRange(c, center-width/2, center+width/2)
	}
	return p.Normalize(w.sch)
}

// Name implements Generator.
func (w *W3) Name() string { return "w3" }

// W4 sets bounds to min(Ĉ), max(Ĉ) over a sample of k rows — range width
// grows with the sample size, covering the data's dense regions.
type W4 struct {
	base
	// MaxSample caps the per-predicate row sample; defaults to 50.
	MaxSample int
}

// Gen implements Generator.
func (w *W4) Gen(rng *rand.Rand) query.Predicate {
	maxS := w.MaxSample
	if maxS <= 0 {
		maxS = 50
	}
	p := query.NewFullRange(w.sch)
	k := 2 + rng.Intn(maxS-1)
	n := w.tbl.NumRows()
	for _, c := range w.pickCols(rng) {
		vals := w.tbl.Cols[c].Vals
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := 0; i < k; i++ {
			v := vals[rng.Intn(n)]
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		p.SetRange(c, lo, hi)
	}
	return p.Normalize(w.sch)
}

// Name implements Generator.
func (w *W4) Name() string { return "w4" }

// W5 centers ranges on a row sampled stratified by value frequency (rare
// values are as likely as common ones), plus a random width — predicates
// over-sample the tails of the data.
type W5 struct {
	base
	strata map[int][][]int // column → frequency strata → row indices
	// builtVersion/builtRows invalidate the cached strata when the
	// underlying table mutates (data drifts re-shape the rows).
	builtVersion int
	builtRows    int
}

const w5Strata = 8

func (w *W5) buildStrata() {
	if w.strata != nil && w.builtVersion == w.tbl.Version && w.builtRows == w.tbl.NumRows() {
		return
	}
	w.builtVersion = w.tbl.Version
	w.builtRows = w.tbl.NumRows()
	w.strata = make(map[int][][]int)
	n := w.tbl.NumRows()
	for c := 0; c < w.sch.NumCols(); c++ {
		vals := w.tbl.Cols[c].Vals
		// Quantize values so real columns get meaningful frequencies.
		span := w.sch.Maxs[c] - w.sch.Mins[c]
		keyOf := func(v float64) int {
			if span <= 0 {
				return 0
			}
			k := int((v - w.sch.Mins[c]) / span * 64)
			if k > 63 {
				k = 63
			}
			return k
		}
		freq := make(map[int]int)
		for i := 0; i < n; i++ {
			freq[keyOf(vals[i])]++
		}
		// Order keys by frequency — ties by key, so the order does not depend
		// on map iteration — and carve into strata of roughly equal key counts.
		keys := make([]int, 0, len(freq))
		for k := range freq {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(a, b int) bool {
			if fa, fb := freq[keys[a]], freq[keys[b]]; fa != fb {
				return fa < fb
			}
			return keys[a] < keys[b]
		})
		stratumOf := make(map[int]int, len(keys))
		for i, k := range keys {
			stratumOf[k] = i * w5Strata / len(keys)
		}
		strata := make([][]int, w5Strata)
		for i := 0; i < n; i++ {
			s := stratumOf[keyOf(vals[i])]
			strata[s] = append(strata[s], i)
		}
		w.strata[c] = strata
	}
}

// Gen implements Generator.
func (w *W5) Gen(rng *rand.Rand) query.Predicate {
	w.buildStrata()
	p := query.NewFullRange(w.sch)
	for _, c := range w.pickCols(rng) {
		strata := w.strata[c]
		var rows []int
		for tries := 0; tries < 16 && len(rows) == 0; tries++ {
			rows = strata[rng.Intn(len(strata))]
		}
		if len(rows) == 0 {
			continue
		}
		center := w.tbl.Cols[c].Vals[rows[rng.Intn(len(rows))]]
		width := rng.Float64() * (w.sch.Maxs[c] - w.sch.Mins[c]) * 0.5
		p.SetRange(c, center-width/2, center+width/2)
	}
	return p.Normalize(w.sch)
}

// Name implements Generator.
func (w *W5) Name() string { return "w5" }

// New constructs a single wᵢ generator ("w1".."w5") over the table.
func New(kind string, tbl *dataset.Table, sch *query.Schema, opts Options) Generator {
	b := base{tbl: tbl, sch: sch, opts: opts.withDefaults()}
	switch kind {
	case "w1":
		return &W1{b}
	case "w2":
		return &W2{b}
	case "w3":
		return &W3{b}
	case "w4":
		return &W4{base: b}
	case "w5":
		return &W5{base: b}
	default:
		panic("workload: unknown generator " + kind)
	}
}

// Mixture draws from component generators uniformly at random, modelling the
// paper's combined workloads like "w12" (uniform mix of w1 and w2).
type Mixture struct {
	Gens []Generator
	name string
}

// NewMixture builds a uniform mixture.
func NewMixture(gens ...Generator) *Mixture {
	names := make([]string, len(gens))
	for i, g := range gens {
		names[i] = g.Name()
	}
	return &Mixture{Gens: gens, name: "mix(" + strings.Join(names, "+") + ")"}
}

// Gen implements Generator.
func (m *Mixture) Gen(rng *rand.Rand) query.Predicate {
	return m.Gens[rng.Intn(len(m.Gens))].Gen(rng)
}

// Name implements Generator.
func (m *Mixture) Name() string { return m.name }

// Parse builds a generator from the paper's compact notation: "w1" is a
// single method, "w12" the uniform mixture of w1 and w2, "w345" the mixture
// of w3, w4, w5, and so on.
func Parse(spec string, tbl *dataset.Table, sch *query.Schema, opts Options) Generator {
	if !strings.HasPrefix(spec, "w") || len(spec) < 2 {
		panic("workload: bad spec " + spec)
	}
	digits := spec[1:]
	if len(digits) == 1 {
		return New(spec, tbl, sch, opts)
	}
	var gens []Generator
	for _, d := range digits {
		if d < '1' || d > '5' {
			panic(fmt.Sprintf("workload: bad spec %q", spec))
		}
		gens = append(gens, New("w"+string(d), tbl, sch, opts))
	}
	return NewMixture(gens...)
}

// Generate draws n predicates from g.
func Generate(g Generator, n int, rng *rand.Rand) []query.Predicate {
	out := make([]query.Predicate, n)
	for i := range out {
		out[i] = g.Gen(rng)
	}
	return out
}
