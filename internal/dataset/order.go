package dataset

import (
	"cmp"
	"math"
	"slices"
)

// sortedOrder is a table's per-column sorted row order: the scan index the
// annotator counts over and the histogram estimator reads its equi-depth
// edges from. It costs 4 bytes per cell and is immutable once published.
type sortedOrder struct {
	// version, numRows and numCols are the table state the order was built
	// from; a mismatch with the live table means it is stale.
	version, numRows, numCols int
	// rows[c] lists the row ids of column c by ascending value, NaN cells
	// first (the order sort.Float64s gives the values), ties by row id.
	rows [][]int32
	// nans[c] is how many leading entries of rows[c] hold NaN cells.
	nans []int
}

// SortedOrder returns, for every column c, the row ids ordered by ascending
// value (rows[c]; NaN cells first, nans[c] of them, ties by row id). The
// order is built on the first call after a mutation, keyed on (Version,
// NumRows) like workload.W5's strata, and shared by every reader of the
// table: concurrent callers are safe against each other, and — as for every
// other read of a Table — not against a concurrent mutator. The returned
// slices are read-only.
func (t *Table) SortedOrder() (rows [][]int32, nans []int) {
	o := t.order.Load()
	if !t.current(o) {
		o = t.rebuildOrder()
	}
	return o.rows, o.nans
}

func (t *Table) current(o *sortedOrder) bool {
	return o != nil && o.version == t.Version && o.numRows == t.NumRows() && o.numCols == len(t.Cols)
}

// rebuildOrder sorts every column once; callers racing on a stale order
// wait on orderMu and share the winner's result.
func (t *Table) rebuildOrder() *sortedOrder {
	t.orderMu.Lock()
	defer t.orderMu.Unlock()
	if o := t.order.Load(); t.current(o) {
		return o
	}
	type cell struct {
		v   float64
		row int32
	}
	n := t.NumRows()
	o := &sortedOrder{
		version: t.Version, numRows: n, numCols: len(t.Cols),
		rows: make([][]int32, len(t.Cols)), nans: make([]int, len(t.Cols)),
	}
	// Sorting (value, row) cells keeps the comparisons on one cache line;
	// sorting row ids through the column would chase a pointer per compare.
	cells := make([]cell, n)
	for c, col := range t.Cols {
		for r, v := range col.Vals {
			cells[r] = cell{v, int32(r)}
		}
		// cmp.Compare orders NaN before every number and -0 equal to +0,
		// exactly as sort.Float64s does.
		slices.SortFunc(cells, func(a, b cell) int {
			if d := cmp.Compare(a.v, b.v); d != 0 {
				return d
			}
			return cmp.Compare(a.row, b.row)
		})
		rows := make([]int32, n)
		for i, x := range cells {
			rows[i] = x.row
			if math.IsNaN(x.v) {
				o.nans[c]++
			}
		}
		o.rows[c] = rows
	}
	t.order.Store(o)
	return o
}
