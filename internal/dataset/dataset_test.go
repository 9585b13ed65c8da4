package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// col returns the column with the given name, or nil.
func col(t *Table, name string) *Column {
	if i := t.ColIndex(name); i >= 0 {
		return t.Cols[i]
	}
	return nil
}

// cloneTable deep-copies t's columns into a new table at t's Version.
func cloneTable(t *Table) *Table {
	cols := make([]*Column, len(t.Cols))
	for i, c := range t.Cols {
		cols[i] = &Column{Name: c.Name, Type: c.Type, Vals: append([]float64(nil), c.Vals...)}
	}
	c := NewTable(t.Name, cols...)
	c.Version = t.Version
	return c
}

// distinctCount is the number of distinct values in c.
func distinctCount(c *Column) int {
	seen := make(map[float64]struct{}, 64)
	for _, v := range c.Vals {
		seen[v] = struct{}{}
	}
	return len(seen)
}

func TestTableBasics(t *testing.T) {
	tbl := NewTable("t",
		&Column{Name: "a", Type: Real, Vals: []float64{1, 2, 3}},
		&Column{Name: "b", Type: Categorical, Vals: []float64{0, 1, 0}},
	)
	if tbl.NumRows() != 3 || tbl.NumCols() != 2 {
		t.Fatalf("dims = %d,%d", tbl.NumRows(), tbl.NumCols())
	}
	if tbl.ColIndex("b") != 1 || tbl.ColIndex("z") != -1 {
		t.Error("ColIndex wrong")
	}
	row := tbl.Row(1, nil)
	if row[0] != 2 || row[1] != 1 {
		t.Errorf("Row = %v", row)
	}
	mins, maxs := tbl.Ranges()
	if mins[0] != 1 || maxs[0] != 3 || mins[1] != 0 || maxs[1] != 1 {
		t.Errorf("Ranges = %v %v", mins, maxs)
	}
}

func TestNewTableRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTable("t",
		&Column{Name: "a", Vals: []float64{1}},
		&Column{Name: "b", Vals: []float64{1, 2}},
	)
}

func TestColumnStats(t *testing.T) {
	c := &Column{Name: "x", Vals: []float64{5, 1, 5, 3}}
	if c.Min() != 1 || c.Max() != 5 {
		t.Errorf("min/max = %v/%v", c.Min(), c.Max())
	}
	if distinctCount(c) != 3 {
		t.Errorf("distinct = %d", distinctCount(c))
	}
	empty := &Column{Name: "e"}
	if empty.Min() != 0 || empty.Max() != 0 || distinctCount(empty) != 0 {
		t.Error("empty column stats wrong")
	}
}

func TestSortByColumn(t *testing.T) {
	tbl := NewTable("t",
		&Column{Name: "k", Vals: []float64{3, 1, 2}},
		&Column{Name: "v", Vals: []float64{30, 10, 20}},
	)
	v0 := tbl.Version
	tbl.SortByColumn(0)
	if tbl.Cols[0].Vals[0] != 1 || tbl.Cols[0].Vals[2] != 3 {
		t.Errorf("sort keys = %v", tbl.Cols[0].Vals)
	}
	// Row alignment preserved.
	if tbl.Cols[1].Vals[0] != 10 || tbl.Cols[1].Vals[2] != 30 {
		t.Errorf("sort values = %v", tbl.Cols[1].Vals)
	}
	if tbl.Version == v0 {
		t.Error("Version not bumped")
	}
}

func TestTruncateTracksChanges(t *testing.T) {
	tbl := NewTable("t", &Column{Name: "a", Vals: []float64{1, 2, 3, 4}})
	v0 := tbl.Version
	tbl.Truncate(2)
	if tbl.NumRows() != 2 || tbl.Cols[0].Vals[1] != 2 {
		t.Fatalf("rows = %v", tbl.Cols[0].Vals)
	}
	if tbl.ChangedRows != 2 || tbl.ChangedFraction() != 1 || tbl.Version == v0 {
		t.Errorf("ChangedRows = %d, fraction %v, Version %d; want 2, 1 and a bump", tbl.ChangedRows, tbl.ChangedFraction(), tbl.Version)
	}
	tbl.ResetChangeTracking()
	if tbl.ChangedFraction() != 0 {
		t.Error("reset failed")
	}
}

// TestCloneIndependence holds the test helper cloneTable to a deep copy:
// TestUpdateDriftShiftsValues compares a drifted table against one.
func TestCloneIndependence(t *testing.T) {
	tbl := NewTable("t", &Column{Name: "a", Vals: []float64{1, 2}})
	c := cloneTable(tbl)
	c.Cols[0].Vals[0] = 99
	if tbl.Cols[0].Vals[0] != 1 {
		t.Error("cloneTable aliases data")
	}
}

func TestHiggsProfile(t *testing.T) {
	tbl := Higgs(5000, rand.New(rand.NewSource(1)))
	if tbl.NumCols() != 8 {
		t.Fatalf("higgs cols = %d, want 8", tbl.NumCols())
	}
	if tbl.NumRows() != 5000 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	for _, c := range tbl.Cols {
		if c.Type != Real {
			t.Errorf("col %s type = %v, want real", c.Name, c.Type)
		}
		// Continuous columns should have very high distinctness.
		if distinctCount(c) < 4000 {
			t.Errorf("col %s distinct = %d, want near-unique", c.Name, distinctCount(c))
		}
	}
}

func TestPRSAProfile(t *testing.T) {
	tbl := PRSA(5000, rand.New(rand.NewSource(2)))
	if tbl.NumCols() != 9 {
		t.Fatalf("prsa cols = %d, want 9", tbl.NumCols())
	}
	var nReal, nCat, nDate int
	for _, c := range tbl.Cols {
		switch c.Type {
		case Real:
			nReal++
		case Categorical:
			nCat++
		case Date:
			nDate++
		}
	}
	if nReal != 6 || nCat != 2 || nDate != 1 {
		t.Errorf("type mix = %d real, %d cat, %d date; want 6/2/1", nReal, nCat, nDate)
	}
	if d := distinctCount(col(tbl, "station")); d > 5 {
		t.Errorf("station distinct = %d, want <=5", d)
	}
	// Seasonality: temperature range should span tens of degrees.
	temp := col(tbl, "temp")
	if temp.Max()-temp.Min() < 20 {
		t.Errorf("temp range = %v, want seasonal spread", temp.Max()-temp.Min())
	}
}

func TestPokerProfile(t *testing.T) {
	tbl := Poker(5000, rand.New(rand.NewSource(3)))
	if tbl.NumCols() != 11 {
		t.Fatalf("poker cols = %d, want 11", tbl.NumCols())
	}
	for _, c := range tbl.Cols {
		if c.Type != Categorical {
			t.Errorf("col %s type = %v, want categorical", c.Name, c.Type)
		}
		if d := distinctCount(c); d > 13 {
			t.Errorf("col %s distinct = %d, want <=13", c.Name, d)
		}
	}
	// Hand classes concentrate on high-card/pair as in the real dataset.
	class := col(tbl, "class")
	low := 0
	for _, v := range class.Vals {
		if v <= 1 {
			low++
		}
	}
	if float64(low)/float64(len(class.Vals)) < 0.8 {
		t.Errorf("only %d/%d hands are class<=1", low, len(class.Vals))
	}
}

func TestByName(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, name := range []string{"higgs", "prsa", "poker"} {
		tbl, err := ByName(name, 500, rng)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if tbl.Name != name || tbl.NumRows() != 500 {
			t.Errorf("ByName(%q, 500) = %q with %d rows", name, tbl.Name, tbl.NumRows())
		}
	}
	if _, err := ByName("nope", 500, rng); err == nil {
		t.Fatal("expected an error for an unknown name")
	}
}

func TestUpdateDriftShiftsValues(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tbl := Higgs(2000, rng)
	before := cloneTable(tbl)
	UpdateDrift(tbl, 1.0, 1.0, rng)
	diff := 0
	for i, v := range tbl.Cols[0].Vals {
		if v != before.Cols[0].Vals[i] {
			diff++
		}
	}
	if diff < 1000 {
		t.Errorf("only %d rows changed after full update drift", diff)
	}
	if tbl.ChangedFraction() < 0.5 {
		t.Errorf("ChangedFraction = %v", tbl.ChangedFraction())
	}
}

func TestSortTruncateHalf(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tbl := Higgs(1000, rng)
	maxBefore := tbl.Cols[0].Max()
	SortTruncateHalf(tbl, 0)
	if tbl.NumRows() != 500 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	// Kept the lower half → max of sort column must drop.
	if tbl.Cols[0].Max() >= maxBefore {
		t.Error("truncation did not change data distribution")
	}
}

// Property: generated tables always have rectangular shape and finite values.
func TestGeneratorsRectangular(t *testing.T) {
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		names := []string{"higgs", "prsa", "poker"}
		var tbl *Table
		switch names[int(pick)%3] {
		case "higgs":
			tbl = Higgs(200, rng)
		case "prsa":
			tbl = PRSA(200, rng)
		default:
			tbl = Poker(200, rng)
		}
		n := tbl.NumRows()
		for _, c := range tbl.Cols {
			if len(c.Vals) != n {
				return false
			}
			for _, v := range c.Vals {
				if v != v { // NaN
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}
