package dataset

import (
	"math/rand"
	"slices"
	"testing"
)

func TestSortedOrder(t *testing.T) {
	tbl := NewTable("t",
		&Column{Name: "a", Vals: []float64{3, -1, 1, 3, -4, -1, 2}},
		&Column{Name: "b", Vals: []float64{0, 0, 0, 0, 0, 0, 0}},
	)
	rows := tbl.SortedOrder()
	if want := []int32{4, 1, 5, 2, 6, 0, 3}; !slices.Equal(rows[0], want) {
		t.Errorf("column a: order %v, want %v", rows[0], want)
	}
	if want := []int32{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(rows[1], want) {
		t.Errorf("constant column: order %v, want row order", rows[1])
	}

	// Unchanged table: the same order, not a rebuilt one.
	if again := tbl.SortedOrder(); &again[0][0] != &rows[0][0] {
		t.Error("SortedOrder rebuilt over an unchanged table")
	}
	// A copy starts without an order and never shares one.
	c := cloneTable(tbl)
	if cr := c.SortedOrder(); &cr[0][0] == &rows[0][0] {
		t.Error("a copy shares the original's order")
	}

	UpdateDrift(tbl, 1, 1, rand.New(rand.NewSource(1))) // same size: only Version changes
	tbl.SortedOrder()
	// A row appended behind the table's back changes NumRows but not
	// Version: the order is keyed on both, so it is rebuilt.
	tbl.Cols[0].Vals = append(tbl.Cols[0].Vals, -100)
	tbl.Cols[1].Vals = append(tbl.Cols[1].Vals, 1)
	rows = tbl.SortedOrder()
	if len(rows[0]) != 8 || rows[0][0] != 7 || rows[1][7] != 7 {
		t.Errorf("after a bare append: order %v / %v does not place the new row", rows[0], rows[1])
	}
	for c, col := range tbl.Cols {
		for i := 1; i < len(rows[c]); i++ {
			if col.Vals[rows[c][i-1]] > col.Vals[rows[c][i]] {
				t.Fatalf("column %d not ascending at %d: %v", c, i, rows[c])
			}
		}
	}
	if r := NewTable("empty").SortedOrder(); len(r) != 0 {
		t.Errorf("zero-column table: %v", r)
	}
}
