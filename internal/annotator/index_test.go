package annotator

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// cloneTable deep-copies t's columns into a new table at t's Version: the
// same contents with an empty pass-bitmap cache.
func cloneTable(t *dataset.Table) *dataset.Table {
	cols := make([]*dataset.Column, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = &dataset.Column{Name: c.Name, Type: c.Type, Vals: slices.Clone(c.Vals)}
	}
	c := dataset.NewTable(t.Name, cols...)
	c.Version = t.Version
	return c
}

// appendBare appends k rows, column c's cells drawn from cell(c), without
// bumping Version, as a mutator that forgot to would: only NumRows tells
// the caches.
func appendBare(t *dataset.Table, k int, cell func(c int) float64) {
	for range k {
		for c, col := range t.Cols {
			col.Vals = append(col.Vals, cell(c))
		}
	}
}

// randomTable mixes the column shapes the index has to get right: continuous
// values, duplicate-heavy categoricals, a constant column, and a column of
// small integers with −0 cells among the +0 ones. Cells are finite, as
// dataset.FromCSV leaves them.
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
				if rng.Intn(12) == 0 {
					vals[r] = math.Copysign(0, -1)
				} else {
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
	// The largest table, 70 000 rows, is wide only at four columns.
	for _, rows := range []int{0, 1, 2, 63, 64, 65, 700, 5000, 70000} {
		for _, cols := range []int{1, 4, 9, 17} {
			if rows > 5000 && cols > 4 {
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

// TestSortedOrderMatchesComparisonSort holds the table's radix-sorted order
// to the comparison sort it replaced — cmp.Compare on the values (-0 equal
// to +0), ties by row id — on every column shape randomTable draws: ±0,
// duplicates and a constant column.
func TestSortedOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, rows := range []int{0, 1, 2, 255, 256, 257, 3000} {
		tbl := randomTable(rng, rows, 8)
		order := tbl.SortedOrder()
		for c, col := range tbl.Cols {
			want := make([]int32, rows)
			for r := range want {
				want[r] = int32(r)
			}
			slices.SortFunc(want, func(a, b int32) int {
				if d := cmp.Compare(col.Vals[a], col.Vals[b]); d != 0 {
					return d
				}
				return cmp.Compare(a, b)
			})
			if !slices.Equal(order[c], want) {
				t.Fatalf("%d rows, column %d: order %v, want %v", rows, c, order[c], want)
			}
		}
	}
}

// mutateAndRecount warms a's pass-bitmap cache on preds (each counted three
// times, so its runs are admitted and then hit), applies mutate, and checks
// every count against the scan — first on the mutated table, then warm
// again.
func mutateAndRecount(t *testing.T, a *Annotator, preds []query.Predicate, name string, mutate func()) {
	t.Helper()
	tbl := a.Table()
	for round := range 3 {
		for i, p := range preds {
			if got, want := countOK(t, a, p), scanCount(tbl, p); got != want {
				t.Fatalf("before %s, round %d, pred %d: Count = %v, scan = %v", name, round, i, got, want)
			}
		}
	}
	mutate()
	for round := range 2 {
		for i, p := range preds {
			if got, want := countOK(t, a, p), scanCount(tbl, p); got != want {
				t.Fatalf("after %s, round %d, pred %d: Count = %v, scan = %v", name, round, i, got, want)
			}
		}
	}
}

// TestCountAcrossMutations counts through the pass-bitmap cache across each
// mutation the cache must notice: a bare Version++, an in-place update, a
// bare append and a sort-then-truncate. A quarter of the predicates are
// unconstrained on every column but one, at the columns' ranges before any
// mutation, as a schema captured at start leaves them: once the table
// drifts, those columns' runs are the cached ones a stale cache would
// serve.
func TestCountAcrossMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	tbl := randomTable(rng, 2000, 6)
	a := New(tbl)
	preds := make([]query.Predicate, 64)
	for i := range preds {
		preds[i] = randomPred(rng, tbl)
		if i%4 == 0 {
			for c, col := range tbl.Cols {
				if c != i%len(tbl.Cols) {
					preds[i].Lows[c], preds[i].Highs[c] = col.Min(), col.Max()
				}
			}
		}
	}
	for _, m := range []struct {
		name string
		do   func()
	}{
		{"Version++", func() {
			// Reversing a column keeps its values, so every run keeps its
			// bounds in the sorted order, and moves them to other rows.
			for _, col := range tbl.Cols[1:] {
				slices.Reverse(col.Vals)
			}
			tbl.Version++
		}},
		{"UpdateDrift", func() { dataset.UpdateDrift(tbl, 0.3, 1.0, rng) }},
		{"bare append", func() {
			// Rows that sort last in every column leave each run that
			// excludes the largest float at its bounds in the sorted
			// order, so only NumRows tells the cache that its bitmaps are
			// too short.
			appendBare(tbl, 300, func(int) float64 { return math.MaxFloat64 })
		}},
		{"SortTruncateHalf", func() { dataset.SortTruncateHalf(tbl, 0) }},
		{"UpdateDrift again", func() { dataset.UpdateDrift(tbl, 1, 0.5, rng) }},
	} {
		mutateAndRecount(t, a, preds, m.name, m.do)
	}
}

// TestWarmCountAllocatesNothing pins the cache's steady state: once a
// drifted table's repeated runs are admitted, a count — cache hits, scratch
// accumulators and all — allocates nothing.
func TestWarmCountAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	tbl := randomTable(rng, 5000, 6)
	mins, maxs := tbl.Ranges()
	preds := make([]query.Predicate, 8)
	for i := range preds {
		preds[i] = randomPred(rng, tbl)
		for c := range tbl.Cols { // unconstrained at the pre-drift ranges, as a start-up schema leaves them
			if c != i%len(tbl.Cols) {
				preds[i].Lows[c], preds[i].Highs[c] = mins[c], maxs[c]
			}
		}
	}
	dataset.UpdateDrift(tbl, 0.3, 1, rng)
	a := New(tbl)
	cycle := func() {
		for _, p := range preds {
			countOK(t, a, p)
		}
	}
	cycle()
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("a warm cycle of %d counts allocates %v times, want 0", len(preds), allocs)
	}
	cached := 0
	for _, cc := range a.cache.cols {
		for _, s := range cc.slots {
			if s.bits != nil {
				cached++
			}
		}
	}
	if cached == 0 {
		t.Error("the cache holds no bitmap: the drifted columns were never admitted")
	}
}

// TestPassBitmapsAreWrittenOnce pins the cache's policy on a drifted table.
// Column 0's run at its pre-drift range (unconstrained, as a start-up
// schema leaves it) recurs between constrained runs of column 0 that
// repeat in turn: the first two runs seen twice take the column's two
// slots and keep them, the unconstrained run's bitmap is one slice
// throughout, and the later runs are never built. A mutation gives the
// next table state fresh slots, and a bitmap handed out before it keeps
// its words.
func TestPassBitmapsAreWrittenOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	tbl := randomTable(rng, 5000, 4)
	mins, maxs := tbl.Ranges()
	dataset.UpdateDrift(tbl, 0.3, 1, rng)
	pred := func(lo0, hi0 float64) query.Predicate {
		p := query.Predicate{Lows: make([]float64, 4), Highs: make([]float64, 4)}
		for c := range p.Lows {
			p.Lows[c], p.Highs[c] = math.Inf(-1), math.Inf(1)
		}
		p.Lows[0], p.Highs[0] = lo0, hi0
		p.Lows[1], p.Highs[1] = 1, 3 // column 1 is active in every count
		return p
	}
	unconstrained := pred(mins[0], maxs[0])
	if scanCount(tbl, pred(math.Inf(-1), math.Inf(1))) == scanCount(tbl, unconstrained) {
		t.Fatal("no row drifted out of column 0's start-up range: the run passes every row")
	}
	a := New(tbl)
	count := func(p query.Predicate) {
		t.Helper()
		if got, want := countOK(t, a, p), scanCount(tbl, p); got != want {
			t.Fatalf("pred %v: Count = %v, scan = %v", p, got, want)
		}
	}
	var first [2]passBitmap // column 0's slots once both are written
	for k := 1; k <= 6; k++ {
		constrained := pred(-float64(k), float64(k)+0.5)
		for _, p := range []query.Predicate{unconstrained, constrained, unconstrained, constrained} {
			count(p)
			if s := a.cache.cols[0].slots; k > 1 && !(sameSlot(s[0], first[0]) && sameSlot(s[1], first[1])) {
				t.Fatalf("constrained run %d moved column 0's slots: runs %v %v, then %v %v", k, first[0].run, first[1].run, s[0].run, s[1].run)
			}
		}
		if k == 1 {
			first = a.cache.cols[0].slots
			if first[0].bits == nil || first[1].bits == nil {
				t.Fatal("after two sightings each, column 0's slots are not both written")
			}
		}
	}
	later := pred(-3, 3.5) // seen twice, never built
	if allocs := testing.AllocsPerRun(20, func() {
		count(unconstrained)
		count(later)
	}); allocs != 0 {
		t.Errorf("a count with both slots written allocates %v times, want 0", allocs)
	}

	held := first[0].bits
	words := slices.Clone(held)
	dataset.UpdateDrift(tbl, 0.3, 1, rng)
	count(unconstrained)
	if s := a.cache.cols[0].slots; !sameSlot(s[0], passBitmap{}) || !sameSlot(s[1], passBitmap{}) {
		t.Fatalf("after a mutation and one sighting, column 0's slots hold runs %v %v, want two empty slots", s[0].run, s[1].run)
	}
	count(unconstrained)
	if s := a.cache.cols[0].slots[0]; s.bits == nil || &s.bits[0] == &held[0] {
		t.Error("the new table state's bitmap reuses the old state's words")
	}
	if !slices.Equal(held, words) {
		t.Error("a bitmap handed out before the mutation changed its words")
	}
}

// sameSlot reports whether two cache slots hold one run in one bitmap slice.
func sameSlot(x, y passBitmap) bool {
	return x.run == y.run && len(x.bits) == len(y.bits) && (len(x.bits) == 0 || &x.bits[0] == &y.bits[0])
}

// TestConcurrentCountsShareCache counts from four goroutines, two per
// annotator, on two annotators over one table (run under -race); both
// annotators use the table's one pass-bitmap cache. Six predicates give
// each column up to six runs seen twice, of which the first two take its
// slots: the cache sights, admits, builds and hands out bitmaps while other
// counts read them.
func TestConcurrentCountsShareCache(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	tbl := randomTable(rng, 20000, 5)
	preds := make([]query.Predicate, 6)
	want := make([]float64, len(preds))
	for i := range preds {
		preds[i] = randomPred(rng, tbl)
		want[i] = scanCount(tbl, preds[i])
	}
	anns := [2]*Annotator{New(tbl), New(tbl)}
	if anns[0].cache != anns[1].cache || New(cloneTable(tbl)).cache == anns[0].cache {
		t.Fatal("annotators over one table must share its cache, and only they")
	}
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := anns[g%2]
			for k := range 200 {
				i := (k*5 + g) % len(preds)
				if got, err := a.Count(context.Background(), preds[i]); err != nil || got != want[i] {
					t.Errorf("goroutine %d pred %d: Count = %v, %v; scan = %v", g, i, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
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

// TestCancelMidCount cancels during every loop of the kernel: the marking
// and walking loops, the build of an admitted pass bitmap and the AND of
// cached ones. The kernel polls ctx every ctxCheckRows rows (or the words
// that cover them), so a count that needs several polls must give up at
// whichever one reports cancellation, and a cancelled build must leave no
// bitmap behind.
func TestCancelMidCount(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	tbl := randomTable(rng, 6*ctxCheckRows, 2)
	sch := query.SchemaOf(tbl)
	walk := query.NewFullRange(sch) // two fifths of column 0, four fifths of column 1: walks column 0's run
	walk.SetRange(0, 2, math.Inf(1))
	walk.SetRange(1, 1, 4)
	mark := query.NewFullRange(sch) // a few failures on each side: marks them and counts bits
	mark.SetRange(0, -25, 25)
	mark.SetRange(1, 0, 3)
	for _, tc := range []struct {
		name string
		p    query.Predicate
		// seen is how often the predicate was counted before: once makes
		// the cancelled count build both columns' bitmaps, twice makes it
		// AND the cached ones.
		seen int
	}{{"walk", walk, 0}, {"mark", mark, 0}, {"build", walk, 1}, {"and", mark, 2}} {
		want := scanCount(tbl, tc.p)
		polls := 0
		for ; ; polls++ {
			a := New(cloneTable(tbl)) // a clone starts with an empty pass-bitmap cache
			for range tc.seen {
				countOK(t, a, tc.p)
			}
			got, err := a.Count(&pollLimited{context.Background(), polls}, tc.p)
			if err == nil {
				if got != want {
					t.Errorf("%s: count = %v after %d cancelled attempts, scan = %v", tc.name, got, polls, want)
				}
				if got := countOK(t, a, tc.p); got != want {
					t.Errorf("%s: recount = %v, scan = %v", tc.name, got, want)
				}
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: err = %v, want context.Canceled", tc.name, err)
			}
			if got := countOK(t, a, tc.p); got != want {
				t.Fatalf("%s: count after cancelling at poll %d = %v, scan = %v", tc.name, polls, got, want)
			}
		}
		if polls < 3 {
			t.Errorf("%s: count finished after %d ctx polls; the loops do not poll", tc.name, polls)
		}
		// A count covers each cell at most twice — once building or
		// clearing its column's bitmap, once in the AND, the walk or the
		// popcount — at one poll per ctxCheckRows rows or the words that
		// hold them.
		if polls > 2+2*tbl.NumRows()*tbl.NumCols()/ctxCheckRows {
			t.Errorf("%s: %d ctx polls for %d cells", tc.name, polls, tbl.NumRows()*tbl.NumCols())
		}
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

// FuzzCountAcrossMutations interleaves counts with table mutations on one
// annotator, so the pass-bitmap cache is warm when each mutation lands: ops
// picks, per step, a mutation (bare Version++, UpdateDrift, bare append,
// SortTruncateHalf) or a count of one of four predicates, and every count
// is checked against the scan.
func FuzzCountAcrossMutations(f *testing.F) {
	f.Add(int64(1), uint16(300), []byte{0, 1, 0, 1, 4, 0, 1, 5, 2, 3, 6, 0, 7, 1})
	f.Add(int64(2), uint16(70), []byte{2, 2, 2, 8, 2, 2, 9, 3, 3, 10, 11, 3})
	f.Add(int64(3), uint16(1500), []byte{0, 0, 1, 1, 2, 2, 3, 3, 5, 0, 1, 2, 3, 0, 1, 2, 3, 7, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, rows uint16, ops []byte) {
		rng := rand.New(rand.NewSource(seed))
		tbl := randomTable(rng, int(rows)%3000, 4)
		a := New(tbl)
		var preds [4]query.Predicate
		for i := range preds {
			preds[i] = randomPred(rng, tbl)
		}
		for step, op := range ops[:min(len(ops), 64)] {
			switch op % 12 {
			case 4:
				if tbl.NumRows() > 0 {
					tbl.Cols[0].Vals[rng.Intn(tbl.NumRows())] = rng.NormFloat64() * 10
				}
				tbl.Version++
			case 5:
				dataset.UpdateDrift(tbl, 0.3, 1, rng)
			case 6:
				if n := tbl.NumRows(); n > 0 {
					appendBare(tbl, 1+rng.Intn(n/4+1), func(c int) float64 { return tbl.Cols[c].Vals[rng.Intn(n)] })
				}
			case 7:
				dataset.SortTruncateHalf(tbl, rng.Intn(tbl.NumCols()))
			default:
				p := preds[op%4]
				if got, want := countOK(t, a, p), scanCount(tbl, p); got != want {
					t.Fatalf("step %d, %d rows, pred %v: Count = %v, scan = %v", step, tbl.NumRows(), p, got, want)
				}
			}
		}
	})
}
