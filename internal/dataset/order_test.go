package dataset

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestSortedOrder(t *testing.T) {
	nan := math.NaN()
	tbl := NewTable("t",
		&Column{Name: "a", Vals: []float64{3, nan, 1, 3, math.Inf(-1), nan, 2}},
		&Column{Name: "b", Vals: []float64{0, 0, 0, 0, 0, 0, 0}},
	)
	rows, nans := tbl.SortedOrder()
	if want := []int32{1, 5, 4, 2, 6, 0, 3}; !slices.Equal(rows[0], want) || nans[0] != 2 {
		t.Errorf("column a: order %v with %d NaNs, want %v with 2", rows[0], nans[0], want)
	}
	if want := []int32{0, 1, 2, 3, 4, 5, 6}; !slices.Equal(rows[1], want) || nans[1] != 0 {
		t.Errorf("constant column: order %v with %d NaNs, want row order and 0", rows[1], nans[1])
	}

	// Unchanged table: the same order, not a rebuilt one.
	if again, _ := tbl.SortedOrder(); &again[0][0] != &rows[0][0] {
		t.Error("SortedOrder rebuilt over an unchanged table")
	}
	// A clone starts without an order and never shares one.
	c := tbl.Clone()
	if cr, _ := c.SortedOrder(); &cr[0][0] == &rows[0][0] {
		t.Error("Clone shares the original's order")
	}

	UpdateDrift(tbl, 1, 1, rand.New(rand.NewSource(1))) // same size: only Version changes
	tbl.AppendRow([]float64{-7, 1})
	rows, nans = tbl.SortedOrder()
	if len(rows[0]) != 8 || rows[0][nans[0]] != 7 || rows[1][7] != 7 {
		t.Errorf("after AppendRow: order %v / %v does not place the new row", rows[0], rows[1])
	}
	for c, col := range tbl.Cols {
		for i := nans[c] + 1; i < len(rows[c]); i++ {
			if col.Vals[rows[c][i-1]] > col.Vals[rows[c][i]] {
				t.Fatalf("column %d not ascending at %d: %v", c, i, rows[c])
			}
		}
	}
	if r, n := NewTable("empty").SortedOrder(); len(r) != 0 || len(n) != 0 {
		t.Errorf("zero-column table: %v %v", r, n)
	}
}
