// Package annotator computes ground-truth cardinalities for predicates — the
// 𝔸 module of Figure 4. The paper implements 𝔸 in C++ against the DBMS; here
// it counts over the in-memory columnar tables through their sorted-column
// scan index (dataset.Table.SortedOrder). Annotation is the c_gt term of
// Warper's cost model (§4.3); callers time it on their own clock (the
// adapter's period clock, the experiment harness's stopwatch), so the
// annotators hold no meters.
//
// Annotation is the only adaptation step that touches an external system in
// production, so every entry point takes a context and returns an error: a
// cancelled request or a failed count must degrade the period, not abort the
// process (see the Source interface and internal/resilience).
package annotator

import (
	"context"
	"fmt"
	"math/bits"
	"sort"

	"warper/internal/dataset"
	"warper/internal/query"
)

// Annotator answers count(*) queries over a single table. It is safe for
// concurrent use. Every annotator over one table shares that table's
// pass-bitmap cache (see count).
type Annotator struct {
	tbl   *dataset.Table
	cache *passCache
}

// passCacheKey is the key of the table's pass-bitmap cache in
// dataset.Table.Shared.
type passCacheKey struct{}

// New returns an annotator over the table.
func New(t *dataset.Table) *Annotator {
	pc := t.Shared(passCacheKey{}, func() any { return new(passCache) }).(*passCache)
	return &Annotator{tbl: t, cache: pc}
}

// Table returns the underlying table (live, not a copy).
func (a *Annotator) Table() *dataset.Table { return a.tbl }

// Count returns the exact number of rows matching the predicate. A
// predicate whose dimensionality does not match the table is reported as an
// error: annotation runs on the adaptation path of a long-lived server, so a
// malformed predicate must not kill the process. Cancelling ctx stops the
// count within ctxCheckRows steps.
func (a *Annotator) Count(ctx context.Context, p query.Predicate) (float64, error) {
	if p.Dim() != a.tbl.NumCols() {
		return 0, fmt.Errorf("annotator: predicate dim %d vs table cols %d", p.Dim(), a.tbl.NumCols())
	}
	count, err := a.count(ctx, p)
	if err != nil {
		return 0, err
	}
	return float64(count), nil
}

// AnnotateAll labels every predicate through the same indexed kernel as
// Count (the paper's 𝔸 batches predicates into one evaluation tree, §2; the
// shared sorted order plays that part here). A dimension mismatch anywhere
// in the batch, or a cancelled context, fails the whole batch.
func (a *Annotator) AnnotateAll(ctx context.Context, ps []query.Predicate) ([]query.Labeled, error) {
	for i := range ps {
		if ps[i].Dim() != a.tbl.NumCols() {
			return nil, fmt.Errorf("annotator: predicate %d dim %d vs table cols %d",
				i, ps[i].Dim(), a.tbl.NumCols())
		}
	}
	out := make([]query.Labeled, len(ps))
	for i, p := range ps {
		count, err := a.count(ctx, p)
		if err != nil {
			return nil, err
		}
		out[i] = query.Labeled{Pred: p, Card: float64(count)}
	}
	return out, nil
}

// run is the part of one column's sorted row order that passes a range:
// order[lo:hi]. The rest, order[:lo] and order[hi:], fails.
type run struct{ lo, hi int }

func (r run) passes() int { return r.hi - r.lo }

// active is one column that rejects some rows of a count, with how the
// count's plan uses it.
type active struct {
	col  int
	run  run
	use  use
	bits []uint64 // the cached pass bitmap, or nil
}

func (c *active) fails(n int) int { return n - c.run.passes() }

// use is how count applies one active column.
type use uint8

const (
	useDriver  use = iota // its passing rows are walked
	useProbe              // its cached bitmap is tested per walked row
	useCompare            // its cells are compared per walked row
	useAnd                // its cached bitmap is ANDed into the accumulator
	useClear              // its failing rows are cleared from the accumulator
	useBuild              // its passing rows are set in a bitmap ANDed into the accumulator
)

// cellCost is what count charges for comparing one cell fetched by row id,
// in units of one bitmap word or one bit set through a row id: the cells
// are spread over the whole column, the bitmaps stay in cache.
const cellCost = 4

// count is the counting kernel behind Count and AnnotateAll: the popcount
// of the AND of the pass bitmaps of the columns whose range rejects a row,
// each reached by its cheapest side. It works on the table's sorted row
// order (dataset.Table.SortedOrder): a binary search per column finds the
// run of rows passing that column's range; a column whose run is every row
// is skipped, and the narrowest run is the driver. Every other column is
//
//   - ANDed into the accumulator (n/64 words), or tested per driver row
//     when the driver's run is shorter than that, if the table's
//     pass-bitmap cache holds its run's bitmap (passCache: built from the
//     sorted order on a run's second sighting);
//   - otherwise compared cell by cell per driver row when that is cheaper
//     than touching its smaller side;
//   - otherwise absorbed through its smaller side: its failing rows are
//     cleared from the accumulator, or its passing rows set in a bitmap
//     that is ANDed in.
//
// The driver's run is then walked, testing each row's accumulator bit —
// unless nothing is left to test per row and absorbing the driver too is
// cheaper, when the answer is the accumulator's popcount. A cached bitmap
// costs n/64 words instead of its failing rows, which is what makes a
// drifted table cheap: a normalized predicate's unconstrained columns sit
// at the schema's old range, reject the same drifted rows for every
// predicate, and come out of the cache. ctx is polled every ctxCheckRows
// rows; the result equals the row-at-a-time scan `v < low || v > high →
// reject` cell for cell, NaN bounds (which bound nothing) included. Cells
// are never NaN (dataset.FromCSV refuses them).
func (a *Annotator) count(ctx context.Context, p query.Predicate) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	cols := a.tbl.Cols
	n := a.tbl.NumRows()
	order := a.tbl.SortedOrder()

	var actBuf [16]active
	act := actBuf[:0]
	driver, passes := -1, n
	for c, col := range cols {
		vals, rows, low, high := col.Vals, order[c], p.Lows[c], p.Highs[c]
		lo := sort.Search(len(rows), func(i int) bool { return !(vals[rows[i]] < low) })
		hi := max(lo, sort.Search(len(rows), func(i int) bool { return vals[rows[i]] > high }))
		r := run{lo, hi}
		switch pr := r.passes(); {
		case pr == 0:
			return 0, nil
		case pr == n:
			continue
		case pr < passes:
			driver, passes = len(act), pr
		}
		act = append(act, active{col: c, run: r})
	}
	if len(act) <= 1 {
		return passes, nil
	}

	scratch, err := a.cache.acquire(ctx, a.tbl, order, act)
	defer a.cache.release(scratch)
	if err != nil {
		return 0, err
	}
	words := (n + 63) / 64
	acc, tmp := scratch[:words], scratch[words:]
	var probeBuf [16][]uint64
	var cmpBuf [16]int
	probes, compare := probeBuf[:0], cmpBuf[:0]
	for i := range act {
		c := &act[i]
		pass, fail := c.run.passes(), c.fails(n)
		switch {
		case i == driver:
			c.use = useDriver
		case c.bits != nil && passes < words:
			c.use = useProbe
			probes = append(probes, c.bits)
		case c.bits != nil:
			c.use = useAnd
		case fail <= pass && cellCost*passes >= fail:
			c.use = useClear
		case fail > pass && cellCost*passes >= pass+2*words:
			c.use = useBuild
		default:
			c.use = useCompare
			compare = append(compare, c.col)
		}
	}
	d := &act[driver]
	if len(probes) == 0 && len(compare) == 0 {
		switch {
		case d.bits != nil && 2*words < passes:
			d.use = useAnd
		case d.bits == nil && d.fails(n)+words < passes:
			d.use = useClear
		}
	}

	// The accumulator: the AND of the absorbed columns' pass bitmaps,
	// starting from the first cached one or from all ones.
	filled := false
	for _, c := range act {
		if c.use != useAnd {
			continue
		}
		if !filled {
			copy(acc, c.bits)
			filled = true
		} else if err := andInto(ctx, acc, c.bits); err != nil {
			return 0, err
		}
	}
	for _, c := range act {
		if c.use != useClear && c.use != useBuild {
			continue
		}
		if !filled {
			fillOnes(acc, n)
			filled = true
		}
		if c.use == useClear {
			err = clearFails(ctx, acc, order[c.col], c.run)
		} else if err = buildPass(ctx, tmp, order[c.col], c.run, n); err == nil {
			err = andInto(ctx, acc, tmp)
		}
		if err != nil {
			return 0, err
		}
	}
	if d.use != useDriver {
		return popcount(ctx, acc)
	}
	if !filled {
		acc = nil
	}
	return walk(ctx, order[d.col], d.run, acc, probes, compare, cols, p)
}

// walk counts the driver's passing rows that pass every other column: the
// accumulator (nil when no column was absorbed), the probed bitmaps and the
// compared cells.
func walk(ctx context.Context, order []int32, r run, acc []uint64, probes [][]uint64, compare []int, cols []*dataset.Column, p query.Predicate) (int, error) {
	count := 0
	seg := order[r.lo:r.hi]
	for start := 0; start < len(seg); start += ctxCheckRows {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		chunk := seg[start:min(start+ctxCheckRows, len(seg))]
		if len(probes) == 0 && len(compare) == 0 { // only the accumulator is left
			for _, row := range chunk {
				count += int(acc[row>>6] >> (uint32(row) & 63) & 1)
			}
			continue
		}
	rows:
		for _, row := range chunk {
			w, bit := row>>6, uint32(row)&63
			if len(acc) != 0 && acc[w]>>bit&1 == 0 {
				continue
			}
			for _, b := range probes {
				if b[w]>>bit&1 == 0 {
					continue rows
				}
			}
			for _, c := range compare {
				if v := cols[c].Vals[row]; v < p.Lows[c] || v > p.Highs[c] {
					continue rows
				}
			}
			count++
		}
	}
	return count, nil
}

// fillOnes sets the bits of rows 0..n-1 of dst and clears the rest.
func fillOnes(dst []uint64, n int) {
	for i := range dst {
		dst[i] = ^uint64(0)
	}
	if n%64 != 0 {
		dst[len(dst)-1] = 1<<(n%64) - 1
	}
}

// buildPass writes the pass bitmap of run r of the column with the given
// sorted order into dst, marking whichever side of the run is smaller.
func buildPass(ctx context.Context, dst []uint64, order []int32, r run, n int) error {
	if r.passes() > n-r.passes() {
		fillOnes(dst, n)
		return clearFails(ctx, dst, order, r)
	}
	clear(dst)
	seg := order[r.lo:r.hi]
	for start := 0; start < len(seg); start += ctxCheckRows {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, row := range seg[start:min(start+ctxCheckRows, len(seg))] {
			dst[row>>6] |= 1 << (uint32(row) & 63)
		}
	}
	return nil
}

// clearFails clears the bit of every row that fails r in the column whose
// sorted order is given.
func clearFails(ctx context.Context, dst []uint64, order []int32, r run) error {
	for _, seg := range [2][]int32{order[:r.lo], order[r.hi:]} {
		for start := 0; start < len(seg); start += ctxCheckRows {
			if err := ctx.Err(); err != nil {
				return err
			}
			for _, row := range seg[start:min(start+ctxCheckRows, len(seg))] {
				dst[row>>6] &^= 1 << (uint32(row) & 63)
			}
		}
	}
	return nil
}

// ctxCheckWords is ctxCheckRows in bitmap words.
const ctxCheckWords = ctxCheckRows / 64

// andInto ANDs src into dst.
func andInto(ctx context.Context, dst, src []uint64) error {
	for start := 0; start < len(dst); start += ctxCheckWords {
		if err := ctx.Err(); err != nil {
			return err
		}
		end := min(start+ctxCheckWords, len(dst))
		d, s := dst[start:end], src[start:end]
		for i := range d {
			d[i] &= s[i]
		}
	}
	return nil
}

// popcount counts the set bits of bm.
func popcount(ctx context.Context, bm []uint64) (int, error) {
	count := 0
	for start := 0; start < len(bm); start += ctxCheckWords {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		for _, w := range bm[start:min(start+ctxCheckWords, len(bm))] {
			count += bits.OnesCount64(w)
		}
	}
	return count, nil
}
