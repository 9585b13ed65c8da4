// Package dataset provides the in-memory columnar tables that Warper's
// annotator scans for ground-truth cardinalities, plus synthetic generators
// whose column-type signatures match the paper's evaluation datasets
// (Table 4: Higgs, PRSA, Poker) and the data-drift operators (update,
// sort-and-truncate) used in the c1 experiments.
package dataset

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ColType classifies a column. Dates are stored as numeric day offsets and
// categorical values as integer dictionary identifiers, following §4.1 of the
// paper ("for columns with categorical values, predicates are integer
// dictionary identifiers").
type ColType int

// Column types.
const (
	Real ColType = iota
	Categorical
	Date
)

// Column is a single named column stored densely as float64.
type Column struct {
	Name string
	Type ColType
	Vals []float64
}

// Min returns the minimum value; 0 for an empty column.
func (c *Column) Min() float64 {
	m := 0.0
	for i, v := range c.Vals {
		if i == 0 || v < m {
			m = v
		}
	}
	return m
}

// Max returns the maximum value; 0 for an empty column.
func (c *Column) Max() float64 {
	m := 0.0
	for i, v := range c.Vals {
		if i == 0 || v > m {
			m = v
		}
	}
	return m
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name string
	Cols []*Column
	// Version increments on every mutation, giving the drift detector the
	// "database telemetry" signal from §3.1.
	Version int
	// ChangedRows counts rows updated or truncated away since the last
	// ResetChangeTracking, as a fraction feed for data-drift detection.
	ChangedRows int

	// order caches the per-column sorted row order (see SortedOrder);
	// orderMu serializes its rebuild.
	orderMu sync.Mutex
	order   atomic.Pointer[sortedOrder]

	// shared holds what other packages derive from the table and share
	// among its readers (see Shared), under sharedMu.
	sharedMu sync.Mutex
	shared   map[any]any
}

// NewTable builds a table and validates that all columns have equal length.
func NewTable(name string, cols ...*Column) *Table {
	t := &Table{Name: name, Cols: cols}
	if len(cols) > 0 {
		n := len(cols[0].Vals)
		for _, c := range cols[1:] {
			if len(c.Vals) != n {
				panic(fmt.Sprintf("dataset: column %q has %d rows, want %d", c.Name, len(c.Vals), n))
			}
		}
	}
	return t
}

// Shared returns the value stored under key, storing what build returns on
// the first call for that key. It lets a package keep one piece of state
// per table that all its readers of the table share — the annotators'
// pass-bitmap cache. Such state must notice mutations itself, as
// SortedOrder does by Version, NumRows and NumCols. Keys compare like map
// keys; a package's unexported key type keeps its entry its own.
func (t *Table) Shared(key any, build func() any) any {
	t.sharedMu.Lock()
	defer t.sharedMu.Unlock()
	v, ok := t.shared[key]
	if !ok {
		if t.shared == nil {
			t.shared = make(map[any]any)
		}
		v = build()
		t.shared[key] = v
	}
	return v
}

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return len(t.Cols[0].Vals)
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Cols) }

// ColIndex returns the index of the named column, or -1.
func (t *Table) ColIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Ranges returns per-column (min, max) pairs, used to normalize predicates.
func (t *Table) Ranges() (mins, maxs []float64) {
	mins = make([]float64, len(t.Cols))
	maxs = make([]float64, len(t.Cols))
	for i, c := range t.Cols {
		mins[i] = c.Min()
		maxs[i] = c.Max()
	}
	return mins, maxs
}

// Row copies row i into dst (allocated if nil) and returns it.
func (t *Table) Row(i int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(t.Cols))
	}
	for j, c := range t.Cols {
		dst[j] = c.Vals[i]
	}
	return dst
}

// ResetChangeTracking clears the changed-row counter after the drift
// detector has consumed it.
func (t *Table) ResetChangeTracking() { t.ChangedRows = 0 }

// ChangedFraction reports the fraction of current rows changed since the
// last reset.
func (t *Table) ChangedFraction() float64 {
	n := t.NumRows()
	if n == 0 {
		return 0
	}
	f := float64(t.ChangedRows) / float64(n)
	if f > 1 {
		f = 1
	}
	return f
}

// SortByColumn stably sorts all rows of the table by the given column index,
// ascending. Used by the paper's c1 data-drift construction.
func (t *Table) SortByColumn(col int) {
	n := t.NumRows()
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	key := t.Cols[col].Vals
	sort.SliceStable(idx, func(a, b int) bool { return key[idx[a]] < key[idx[b]] })
	for _, c := range t.Cols {
		out := make([]float64, n)
		for i, j := range idx {
			out[i] = c.Vals[j]
		}
		c.Vals = out
	}
	t.Version++
}

// Truncate keeps only the first n rows.
func (t *Table) Truncate(n int) {
	if n < 0 {
		n = 0
	}
	cur := t.NumRows()
	if n >= cur {
		return
	}
	for _, c := range t.Cols {
		c.Vals = c.Vals[:n]
	}
	t.Version++
	t.ChangedRows += cur - n
}
