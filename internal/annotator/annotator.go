// Package annotator computes ground-truth cardinalities for predicates — the
// 𝔸 module of Figure 4. The paper implements 𝔸 in C++ against the DBMS; here
// it counts over the in-memory columnar tables through their sorted-column
// scan index (dataset.Table.SortedOrder). It also meters its own cost
// (covered rows and wall time) because annotation is the dominant term c_gt
// of Warper's cost model (§4.3).
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
	"sync"
	"time"

	"warper/internal/dataset"
	"warper/internal/query"
)

// Annotator answers count(*) queries over a single table.
type Annotator struct {
	tbl *dataset.Table

	// mu guards the cost meters below. Count runs concurrently on the
	// serving path (/estimate traffic during a period), so meter updates
	// must be synchronized; reading the fields directly is safe only once
	// all concurrent callers have quiesced.
	mu          sync.Mutex
	Queries     int
	RowsScanned int64
	Elapsed     time.Duration
}

// New returns an annotator over the table.
func New(t *dataset.Table) *Annotator { return &Annotator{tbl: t} }

// Table returns the underlying table (live, not a copy).
func (a *Annotator) Table() *dataset.Table { return a.tbl }

// Count returns the exact number of rows matching the predicate. A
// predicate whose dimensionality does not match the table is reported as an
// error: annotation runs on the adaptation path of a long-lived server, so a
// malformed predicate must not kill the process. Cancelling ctx stops the
// count within ctxCheckRows steps.
func (a *Annotator) Count(ctx context.Context, p query.Predicate) (float64, error) {
	start := time.Now()
	if p.Dim() != a.tbl.NumCols() {
		return 0, fmt.Errorf("annotator: predicate dim %d vs table cols %d", p.Dim(), a.tbl.NumCols())
	}
	count, err := a.count(ctx, p)
	if err != nil {
		return 0, err
	}
	a.addCost(1, int64(a.tbl.NumRows()), time.Since(start))
	return float64(count), nil
}

// AnnotateAll labels every predicate through the same indexed kernel as
// Count (the paper's 𝔸 batches predicates into one evaluation tree, §2; the
// shared sorted order plays that part here). A dimension mismatch anywhere
// in the batch, or a cancelled context, fails the whole batch.
func (a *Annotator) AnnotateAll(ctx context.Context, ps []query.Predicate) ([]query.Labeled, error) {
	start := time.Now()
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
	a.addCost(len(ps), int64(a.tbl.NumRows()), time.Since(start)) // one batch, one table's worth of rows
	return out, nil
}

// stackRows is the table size up to which count keeps its failure bitmap on
// the stack (8 KiB); larger tables allocate one per call.
const stackRows = 1 << 16

// run is the part of one column's sorted row order that passes a range:
// order[:nan] (NaN cells pass every range) and order[lo:hi]. The rest,
// order[nan:lo] and order[hi:], fails.
type run struct{ nan, lo, hi int }

func (r run) passes() int { return r.nan + r.hi - r.lo }

// count is the counting kernel behind Count and AnnotateAll. Instead of
// testing rows × cols cells it works on the table's sorted row order
// (dataset.Table.SortedOrder): a binary search per column finds the run of
// rows passing that column's range, the narrowest run becomes the driver,
// and only the smaller side of each remaining column is touched — a column
// failing fewer rows than the driver passes marks them in a bitmap, any
// other is compared cell by cell while walking the driver's run. When the
// failures of all columns together are fewer than the driver's passes the
// answer is n − popcount(failures) and no run is walked at all. The work is
// cols·log n + min(passes, failures) steps, with ctx polled every
// ctxCheckRows of them; the result equals the row-at-a-time scan
// `v < low || v > high → reject` cell for cell, NaN cells (which pass every
// range) and NaN bounds (which bound nothing) included.
func (a *Annotator) count(ctx context.Context, p query.Predicate) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	cols := a.tbl.Cols
	n := a.tbl.NumRows()
	order, nans := a.tbl.SortedOrder()

	var runBuf [16]run
	runs := runBuf[:0]
	driver, passes := -1, n+1
	for c, col := range cols {
		vals, rows, low, high := col.Vals, order[c][nans[c]:], p.Lows[c], p.Highs[c]
		lo := sort.Search(len(rows), func(i int) bool { return !(vals[rows[i]] < low) })
		hi := max(lo, sort.Search(len(rows), func(i int) bool { return vals[rows[i]] > high }))
		r := run{nans[c], nans[c] + lo, nans[c] + hi}
		runs = append(runs, r)
		if r.passes() < passes {
			driver, passes = c, r.passes()
		}
	}
	if passes == 0 || driver < 0 {
		return 0, nil
	}

	var bitBuf [stackRows / 64]uint64
	fails := bitBuf[:]
	if n > stackRows {
		fails = make([]uint64, (n+63)/64)
	}
	var cmpBuf [16]int
	compare := cmpBuf[:0] // columns cheaper to test per driver row than to mark
	marked := 0
	for c, r := range runs {
		switch fail := n - r.passes(); {
		case c == driver || fail == 0:
		case fail >= passes:
			compare = append(compare, c)
		default:
			marked += fail
			if err := markFails(ctx, fails, order[c], r); err != nil {
				return 0, err
			}
		}
	}
	if len(compare) == 0 && marked == 0 {
		return passes, nil
	}
	if len(compare) == 0 && n-passes < passes {
		// Failures are the smaller side: add the driver's and count bits.
		if err := markFails(ctx, fails, order[driver], runs[driver]); err != nil {
			return 0, err
		}
		failed := 0
		for _, w := range fails[:(n+63)/64] {
			failed += bits.OnesCount64(w)
		}
		return n - failed, nil
	}
	count, r := 0, runs[driver]
	for _, seg := range [2][]int32{order[driver][:r.nan], order[driver][r.lo:r.hi]} {
	rows:
		for i, row := range seg {
			if i%ctxCheckRows == 0 && ctx.Err() != nil {
				return 0, ctx.Err()
			}
			if fails[row>>6]>>(uint32(row)&63)&1 != 0 {
				continue
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

// markFails sets the bit of every row that fails r in the column whose
// sorted order is given.
func markFails(ctx context.Context, fails []uint64, order []int32, r run) error {
	for _, seg := range [2][]int32{order[r.nan:r.lo], order[r.hi:]} {
		for i, row := range seg {
			if i%ctxCheckRows == 0 && ctx.Err() != nil {
				return ctx.Err()
			}
			fails[row>>6] |= 1 << (uint32(row) & 63)
		}
	}
	return nil
}

// addCost charges a finished annotation to the meters.
func (a *Annotator) addCost(queries int, rows int64, d time.Duration) {
	a.mu.Lock()
	a.Queries += queries
	a.RowsScanned += rows
	a.Elapsed += d
	a.mu.Unlock()
}

// MeanCostPerQuery returns the measured mean annotation latency, which the
// experiment harness charges to the virtual clock. Returns 0 before any
// query ran.
func (a *Annotator) MeanCostPerQuery() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.Queries == 0 {
		return 0
	}
	return a.Elapsed / time.Duration(a.Queries)
}

// ResetMeters zeroes the cost meters.
func (a *Annotator) ResetMeters() {
	a.mu.Lock()
	a.Queries = 0
	a.RowsScanned = 0
	a.Elapsed = 0
	a.mu.Unlock()
}
