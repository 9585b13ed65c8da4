// Package dataset provides the in-memory columnar tables that Warper's
// annotator scans for ground-truth cardinalities, plus synthetic generators
// whose column-type signatures match the paper's evaluation datasets
// (Table 4: Higgs, PRSA, Poker) and data-drift operators (append, update,
// sort-and-truncate) used in the c1 experiments.
package dataset

import (
	"fmt"
	"math"
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

// String returns a human-readable column type.
func (t ColType) String() string {
	switch t {
	case Real:
		return "real"
	case Categorical:
		return "categorical"
	case Date:
		return "date"
	default:
		return fmt.Sprintf("ColType(%d)", int(t))
	}
}

// Column is a single named column stored densely as float64.
type Column struct {
	Name string
	Type ColType
	Vals []float64
}

// Min returns the minimum value, skipping NaN cells: a NaN orders against
// nothing, and as the first cell it would become the schema's domain bound.
// 0 for a column with no other value.
func (c *Column) Min() float64 {
	m, seen := 0.0, false
	for _, v := range c.Vals {
		if !math.IsNaN(v) && (!seen || v < m) {
			m, seen = v, true
		}
	}
	return m
}

// Max returns the maximum value, skipping NaN cells like Min; 0 for a
// column with no other value.
func (c *Column) Max() float64 {
	m, seen := 0.0, false
	for _, v := range c.Vals {
		if !math.IsNaN(v) && (!seen || v > m) {
			m, seen = v, true
		}
	}
	return m
}

// DistinctCount returns the number of distinct values in the column.
func (c *Column) DistinctCount() int {
	seen := make(map[float64]struct{}, 64)
	for _, v := range c.Vals {
		seen[v] = struct{}{}
	}
	return len(seen)
}

// Table is a named collection of equal-length columns.
type Table struct {
	Name string
	Cols []*Column
	// Version increments on every mutation, giving the drift detector the
	// "database telemetry" signal from §3.1.
	Version int
	// ChangedRows counts rows appended or updated since the last
	// ResetChangeTracking, as a fraction feed for data-drift detection.
	ChangedRows int

	// order caches the per-column sorted row order (see SortedOrder);
	// orderMu serializes its rebuild.
	orderMu sync.Mutex
	order   atomic.Pointer[sortedOrder]
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

// NumRows returns the row count.
func (t *Table) NumRows() int {
	if len(t.Cols) == 0 {
		return 0
	}
	return len(t.Cols[0].Vals)
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Cols) }

// Col returns the column with the given name, or nil.
func (t *Table) Col(name string) *Column {
	for _, c := range t.Cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

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

// AppendRow appends one row (len must equal NumCols).
func (t *Table) AppendRow(row []float64) {
	if len(row) != len(t.Cols) {
		panic(fmt.Sprintf("dataset: AppendRow got %d values for %d columns", len(row), len(t.Cols)))
	}
	for j, c := range t.Cols {
		c.Vals = append(c.Vals, row[j])
	}
	t.Version++
	t.ChangedRows++
}

// Clone deep-copies the table.
func (t *Table) Clone() *Table {
	cols := make([]*Column, len(t.Cols))
	for i, c := range t.Cols {
		vals := make([]float64, len(c.Vals))
		copy(vals, c.Vals)
		cols[i] = &Column{Name: c.Name, Type: c.Type, Vals: vals}
	}
	return &Table{Name: t.Name, Cols: cols, Version: t.Version}
}
