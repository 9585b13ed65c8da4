package annotator

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"warper/internal/dataset"
	"warper/internal/query"
)

// scanCount is the reference the indexed kernel must equal: the
// row-at-a-time scan, every cell against its column's range.
func scanCount(t *dataset.Table, p query.Predicate) float64 {
	count := 0
rows:
	for r := 0; r < t.NumRows(); r++ {
		for c, col := range t.Cols {
			if v := col.Vals[r]; v < p.Lows[c] || v > p.Highs[c] {
				continue rows
			}
		}
		count++
	}
	return float64(count)
}

// randomTable mixes the column shapes the index has to get right: continuous
// values, duplicate-heavy categoricals, a constant column, and a column with
// NaN and ±Inf cells (NaN cells pass every range in the reference scan).
func randomTable(rng *rand.Rand, rows, cols int) *dataset.Table {
	cs := make([]*dataset.Column, cols)
	for c := range cs {
		vals := make([]float64, rows)
		for r := range vals {
			switch c % 4 {
			case 0:
				vals[r] = rng.NormFloat64() * 10
			case 1:
				vals[r] = float64(rng.Intn(5))
			case 2:
				switch rng.Intn(12) {
				case 0:
					vals[r] = math.NaN()
				case 1:
					vals[r] = math.Inf(1 - 2*rng.Intn(2))
				case 2:
					vals[r] = math.Copysign(0, -1)
				default:
					vals[r] = float64(rng.Intn(40)) - 20
				}
			case 3:
				vals[r] = 7
			}
		}
		typ := dataset.Real
		if c%4 == 1 {
			typ = dataset.Categorical
		}
		cs[c] = &dataset.Column{Name: fmt.Sprintf("c%d", c), Type: typ, Vals: vals}
	}
	return dataset.NewTable("t", cs...)
}

// randomBound draws a bound that is a cell of the column (so equalities and
// boundary ties happen), near one, or one of the awkward floats.
func randomBound(rng *rand.Rand, col *dataset.Column) float64 {
	switch k := rng.Intn(10); {
	case k == 0:
		return math.NaN()
	case k == 1:
		return math.Inf(1 - 2*rng.Intn(2))
	case k < 6 && len(col.Vals) > 0:
		return col.Vals[rng.Intn(len(col.Vals))]
	default:
		return rng.NormFloat64() * 12
	}
}

// randomPred constrains a random subset of the columns with ranges,
// equalities, inverted ranges (lows > highs) and NaN/±Inf bounds.
func randomPred(rng *rand.Rand, t *dataset.Table) query.Predicate {
	p := query.Predicate{Lows: make([]float64, t.NumCols()), Highs: make([]float64, t.NumCols())}
	for c, col := range t.Cols {
		lo, hi := math.Inf(-1), math.Inf(1)
		switch rng.Intn(6) {
		case 0, 1: // unconstrained
		case 2: // equality
			lo = randomBound(rng, col)
			hi = lo
		case 3: // unordered bounds: inverted about half the time
			lo, hi = randomBound(rng, col), randomBound(rng, col)
		default:
			lo, hi = randomBound(rng, col), randomBound(rng, col)
			if lo > hi {
				lo, hi = hi, lo
			}
		}
		p.Lows[c], p.Highs[c] = lo, hi
	}
	return p
}

// checkAgainstScan asserts Count and AnnotateAll equal the reference scan on
// k random predicates over the table's current contents.
func checkAgainstScan(t *testing.T, a *Annotator, rng *rand.Rand, k int, when string) {
	t.Helper()
	tbl := a.Table()
	preds := make([]query.Predicate, k)
	for i := range preds {
		preds[i] = randomPred(rng, tbl)
	}
	batch, err := a.AnnotateAll(context.Background(), preds)
	if err != nil {
		t.Fatalf("%s: AnnotateAll: %v", when, err)
	}
	for i, p := range preds {
		want := scanCount(tbl, p)
		if got := countOK(t, a, p); got != want {
			t.Fatalf("%s: %d rows, pred %v: Count = %v, scan = %v", when, tbl.NumRows(), p, got, want)
		}
		if batch[i].Card != want {
			t.Fatalf("%s: %d rows, pred %v: AnnotateAll = %v, scan = %v", when, tbl.NumRows(), p, batch[i].Card, want)
		}
	}
}

func TestCountMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// 70 000 rows is past stackRows: the failure bitmap moves to the heap.
	for _, rows := range []int{0, 1, 2, 63, 64, 65, 700, 5000, stackRows + 4464} {
		for _, cols := range []int{1, 4, 9, 17} {
			if rows > stackRows && cols > 4 {
				continue
			}
			a := New(randomTable(rng, rows, cols))
			checkAgainstScan(t, a, rng, 60, fmt.Sprintf("%dx%d", rows, cols))
		}
	}
	// A table without columns has no rows and matches nothing.
	if got := countOK(t, New(dataset.NewTable("empty")), query.Predicate{}); got != 0 {
		t.Errorf("zero-column count = %v, want 0", got)
	}
}

// TestCountTracksEveryMutator re-checks the index after each exported
// dataset mutator: one that forgot Version++ (or changed rows without
// changing the row count) would serve the previous contents' counts here.
func TestCountTracksEveryMutator(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tbl := randomTable(rng, 900, 6)
	a := New(tbl)
	checkAgainstScan(t, a, rng, 40, "fresh")
	mutators := []struct {
		name string
		do   func()
	}{
		{"AppendRow", func() { tbl.AppendRow([]float64{3, 1, math.NaN(), 7, -2, 4}) }},
		{"AppendDrift", func() { dataset.AppendDrift(tbl, 0.2, 1.5, rng) }},
		{"UpdateDrift", func() { dataset.UpdateDrift(tbl, 0.3, 1.0, rng) }},
		{"Truncate", func() { tbl.Truncate(tbl.NumRows() - 37) }},
		{"SortByColumn", func() { tbl.SortByColumn(0) }},
		{"SortTruncateHalf", func() { dataset.SortTruncateHalf(tbl, 4) }},
		{"UpdateDrift again", func() { dataset.UpdateDrift(tbl, 1, 0.5, rng) }},
	}
	for _, m := range mutators {
		version := tbl.Version
		m.do()
		if tbl.Version == version {
			t.Errorf("%s left Table.Version at %d", m.name, version)
		}
		checkAgainstScan(t, a, rng, 40, "after "+m.name)
	}
}

// TestConcurrentFirstUse races many first counts on a table whose order is
// not built yet (run under -race): all must see one consistent index.
func TestConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	tbl := randomTable(rng, 3000, 5)
	preds := make([]query.Predicate, 16)
	want := make([]float64, len(preds))
	for i := range preds {
		preds[i] = randomPred(rng, tbl)
		want[i] = scanCount(tbl, preds[i])
	}
	for round := 0; round < 3; round++ {
		a, b := New(tbl), New(tbl) // two annotators share the table's one order
		var wg sync.WaitGroup
		for i := range preds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src := a
				if i%2 == 1 {
					src = b
				}
				if got, err := src.Count(context.Background(), preds[i]); err != nil || got != want[i] {
					t.Errorf("round %d pred %d: Count = %v, %v; scan = %v", round, i, got, err, want[i])
				}
			}()
		}
		wg.Wait()
		dataset.UpdateDrift(tbl, 0.5, 1, rng) // stale again for the next round
		for i, p := range preds {
			want[i] = scanCount(tbl, p)
		}
	}
}

// pollLimited is a context that reports cancellation from its (left+1)-th
// Err call on.
type pollLimited struct {
	context.Context
	left int
}

func (c *pollLimited) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

// TestCancelMidCount cancels during the marking and walking loops: the
// kernel polls ctx every ctxCheckRows steps, so a count that needs several
// polls must give up at whichever one reports cancellation.
func TestCancelMidCount(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tbl := randomTable(rng, 6*ctxCheckRows, 2)
	sch := query.SchemaOf(tbl)
	a := New(tbl)
	walk := query.NewFullRange(sch) // two fifths of column 0, four fifths of column 1: walks column 0's run
	walk.SetRange(0, 2, math.Inf(1))
	walk.SetRange(1, 1, 4)
	mark := query.NewFullRange(sch) // a few failures on each side: marks them and counts bits
	mark.SetRange(0, -25, 25)
	mark.SetRange(1, 0, 3)
	for name, p := range map[string]query.Predicate{"walk": walk, "mark": mark} {
		polls := 0
		for ; ; polls++ {
			_, err := a.Count(&pollLimited{context.Background(), polls}, p)
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", name, err)
			}
		}
		if polls < 3 {
			t.Errorf("%s: count finished after %d ctx polls; the loops do not poll", name, polls)
		}
		if polls > 2+tbl.NumRows()*tbl.NumCols()/ctxCheckRows {
			t.Errorf("%s: %d ctx polls for %d cells", name, polls, tbl.NumRows()*tbl.NumCols())
		}
	}
	if a.Queries != 2 {
		t.Errorf("cancelled counts were metered: Queries = %d, want 2", a.Queries)
	}
}

// FuzzCountMatchesScan lets the fuzzer pick the table (seed, size) and the
// bounds of the first two columns outright; the remaining columns get
// seeded random bounds.
func FuzzCountMatchesScan(f *testing.F) {
	inf, nan := math.Inf(1), math.NaN()
	f.Add(int64(1), uint16(300), 0.0, 10.0, 1.0, 3.0)
	f.Add(int64(2), uint16(0), -inf, inf, -inf, inf)
	f.Add(int64(3), uint16(1), nan, nan, 2.0, 2.0)
	f.Add(int64(4), uint16(65), 5.0, -5.0, inf, -inf)
	f.Add(int64(5), uint16(2000), -inf, 0.0, nan, 4.0)
	f.Add(int64(6), uint16(129), math.Copysign(0, -1), 0.0, 0.0, nan)
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, lo0, hi0, lo1, hi1 float64) {
		rng := rand.New(rand.NewSource(seed))
		tbl := randomTable(rng, int(rows)%4096, 4)
		p := randomPred(rng, tbl)
		p.Lows[0], p.Highs[0], p.Lows[1], p.Highs[1] = lo0, hi0, lo1, hi1
		a := New(tbl)
		want := scanCount(tbl, p)
		if got := countOK(t, a, p); got != want {
			t.Fatalf("%d rows, pred %v: Count = %v, scan = %v", tbl.NumRows(), p, got, want)
		}
		dataset.UpdateDrift(tbl, 0.5, 1, rng)
		want = scanCount(tbl, p)
		if got := countOK(t, a, p); got != want {
			t.Fatalf("after UpdateDrift, pred %v: Count = %v, scan = %v", p, got, want)
		}
	})
}
