package dataset

import "math"

// sortedOrder is a table's per-column sorted row order: the scan index the
// annotator counts over and the histogram estimator reads its equi-depth
// edges from. It costs 4 bytes per cell and is immutable once published.
type sortedOrder struct {
	// version, numRows and numCols are the table state the order was built
	// from; a mismatch with the live table means it is stale.
	version, numRows, numCols int
	// rows[c] lists the row ids of column c by ascending value (the order
	// sort.Float64s gives the values), ties by row id.
	rows [][]int32
}

// SortedOrder returns, for every column c, the row ids ordered by ascending
// value (ties by row id). Cells are never NaN (FromCSV refuses them). The
// order is built on the first call after a mutation, keyed on (Version,
// NumRows) like workload.W5's strata, and shared by every reader of the
// table: concurrent callers are safe against each other, and — as for every
// other read of a Table — not against a concurrent mutator. The returned
// slices are read-only.
func (t *Table) SortedOrder() [][]int32 {
	o := t.order.Load()
	if !t.current(o) {
		o = t.rebuildOrder()
	}
	return o.rows
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
	n := t.NumRows()
	o := &sortedOrder{
		version: t.Version, numRows: n, numCols: len(t.Cols),
		rows: make([][]int32, len(t.Cols)),
	}
	var s radixSorter
	for c, col := range t.Cols {
		o.rows[c] = s.sort(col.Vals)
	}
	t.order.Store(o)
	return o
}

// radixSorter orders a column's row ids by an LSD radix sort on sortKey,
// one stable counting pass per key byte, skipping the bytes every key
// shares. Its buffers are reused across the columns of one rebuild.
type radixSorter struct {
	keys, keyTmp []uint64
	rowTmp       []int32
}

// sort returns the row ids of vals in ascending order of sortKey — the
// order sort.Float64s gives the values, ties by row id.
func (s *radixSorter) sort(vals []float64) []int32 {
	n := len(vals)
	if cap(s.keys) < n {
		s.keys, s.keyTmp, s.rowTmp = make([]uint64, n), make([]uint64, n), make([]int32, n)
	}
	keys, keyTmp, rowTmp := s.keys[:n], s.keyTmp[:n], s.rowTmp[:n]
	rows := make([]int32, n)
	var counts [8][256]int
	for r, v := range vals {
		k := sortKey(v)
		keys[r], rows[r] = k, int32(r)
		for b := range counts {
			counts[b][byte(k>>(8*b))]++
		}
	}
	for b := range counts {
		cnt := &counts[b]
		if n == 0 || cnt[byte(keys[0]>>(8*b))] == n {
			continue // every key has this byte: the pass would not move a row
		}
		sum := 0
		for i, c := range cnt {
			cnt[i], sum = sum, sum+c
		}
		for i, k := range keys {
			d := &cnt[byte(k>>(8*b))]
			keyTmp[*d], rowTmp[*d] = k, rows[i]
			*d++
		}
		keys, keyTmp = keyTmp, keys
		rows, rowTmp = rowTmp, rows
	}
	s.rowTmp = rowTmp // whichever buffer the order did not end in
	return rows
}

// sortKey maps a non-NaN float64 to a uint64 whose unsigned order is the
// order cmp.Compare gives the floats: -0 and +0 share one key; otherwise
// negative floats have their bits flipped and the rest their sign bit set.
func sortKey(v float64) uint64 {
	if v == 0 {
		return 1 << 63
	}
	b := math.Float64bits(v)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}
