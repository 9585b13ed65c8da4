package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestFromCSVWithHeader(t *testing.T) {
	in := "a,b,city\n1,2.5,rome\n3,4.5,oslo\n5,6.5,rome\n"
	tbl, err := FromCSV("t", strings.NewReader(in), CSVOptions{HasHeader: true})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 || tbl.NumCols() != 3 {
		t.Fatalf("dims = %dx%d", tbl.NumRows(), tbl.NumCols())
	}
	if tbl.Col("a").Type != Real || tbl.Col("city").Type != Categorical {
		t.Error("type inference wrong")
	}
	// Dictionary encoding: rome=0, oslo=1, rome=0.
	city := tbl.Col("city").Vals
	if city[0] != 0 || city[1] != 1 || city[2] != 0 {
		t.Errorf("dict encoding = %v", city)
	}
	if tbl.Col("b").Vals[1] != 4.5 {
		t.Error("numeric parse wrong")
	}
}

func TestFromCSVHeaderAutodetect(t *testing.T) {
	// No header: the first all-numeric row is data.
	in := "1,2\n3,4\n"
	tbl, err := FromCSV("t", strings.NewReader(in), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", tbl.NumRows())
	}
	if tbl.Cols[0].Name != "col0" {
		t.Errorf("generated name = %q", tbl.Cols[0].Name)
	}
}

func TestFromCSVExplicitTypes(t *testing.T) {
	in := "day,kind\n100,1\n101,2\n"
	tbl, err := FromCSV("t", strings.NewReader(in), CSVOptions{
		HasHeader: true,
		Types:     map[string]ColType{"day": Date, "kind": Categorical},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Col("day").Type != Date {
		t.Error("explicit Date type ignored")
	}
	if tbl.Col("kind").Type != Categorical {
		t.Error("explicit Categorical type ignored")
	}
	// Numeric categorical values are dictionary-encoded.
	if tbl.Col("kind").Vals[0] != 0 || tbl.Col("kind").Vals[1] != 1 {
		t.Errorf("categorical encoding = %v", tbl.Col("kind").Vals)
	}
}

func TestFromCSVMaxRows(t *testing.T) {
	in := "a\n1\n2\n3\n4\n"
	tbl, err := FromCSV("t", strings.NewReader(in), CSVOptions{HasHeader: true, MaxRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("rows = %d, want 2", tbl.NumRows())
	}
}

func TestFromCSVRaggedRowFails(t *testing.T) {
	in := "a,b\n1,2\n3\n"
	if _, err := FromCSV("t", strings.NewReader(in), CSVOptions{HasHeader: true}); err == nil {
		t.Fatal("expected error for ragged row")
	}
}

func TestFromCSVEmptyInputFails(t *testing.T) {
	if _, err := FromCSV("t", strings.NewReader(""), CSVOptions{}); err == nil {
		t.Fatal("expected error for empty input")
	}
}

// TestFromCSVRejectsInfinity: ±Inf in a numeric column would make the
// schema's domain infinite and every normalized predicate garbage; the
// error names the column and the data row.
func TestFromCSVRejectsInfinity(t *testing.T) {
	for _, in := range []string{"a,b\n1,2\n3,inf\n5,6\n7,8\n", "a,b\n-Inf,2\n3,4\n5,6\n7,8\n"} {
		_, err := FromCSV("t", strings.NewReader(in), CSVOptions{HasHeader: true})
		if err == nil {
			t.Fatalf("%q: loaded, want an error", in)
		}
		if !strings.Contains(err.Error(), "column") || !strings.Contains(err.Error(), "row") {
			t.Errorf("%q: error %q names no column and row", in, err)
		}
	}
}

// TestFromCSVRejectsNoDataRows: a header-only file is a table with an empty
// domain, not a table.
func TestFromCSVRejectsNoDataRows(t *testing.T) {
	if tbl, err := FromCSV("t", strings.NewReader("a,b\n"), CSVOptions{HasHeader: true}); err == nil {
		t.Fatalf("header-only csv loaded %d rows, want an error", tbl.NumRows())
	}
}

// TestNaNCellsLeaveTheDomainFinite: a NaN anywhere in a column — the first
// data row included — is skipped by Min and Max, so Ranges is the span of
// the other cells; an all-NaN column spans [0, 0] like an empty one.
func TestNaNCellsLeaveTheDomainFinite(t *testing.T) {
	for _, in := range []string{"a,b\nnan,1\n2,3\n4,5\n6,7\n", "a,b\n2,1\nNaN,3\n4,5\n6,7\n"} {
		tbl, err := FromCSV("t", strings.NewReader(in), CSVOptions{HasHeader: true})
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		mins, maxs := tbl.Ranges()
		if mins[0] != 2 || maxs[0] != 6 || mins[1] != 1 || maxs[1] != 7 {
			t.Errorf("%q: ranges %v..%v, want [2 1]..[6 7]", in, mins, maxs)
		}
	}
	nan := &Column{Vals: []float64{math.NaN(), math.NaN()}}
	if nan.Min() != 0 || nan.Max() != 0 {
		t.Errorf("all-NaN column spans [%v, %v], want [0, 0]", nan.Min(), nan.Max())
	}
}

// FuzzFromCSV throws arbitrary bytes at the CSV loader, with and without a
// header: it never panics, and every table it accepts has a row and a
// finite domain in every column.
func FuzzFromCSV(f *testing.F) {
	f.Add([]byte("a,b,city\n1,2.5,rome\n3,4.5,oslo\n"), true)
	f.Add([]byte("1,2\n3,4\n"), false)
	f.Add([]byte("a,b\nnan,1\n2,inf\n"), true)
	f.Add([]byte("a,b\n"), true)
	f.Add([]byte("a,b\n1\n"), false)
	f.Fuzz(func(t *testing.T, data []byte, header bool) {
		tbl, err := FromCSV("fuzz", bytes.NewReader(data), CSVOptions{HasHeader: header})
		if err != nil {
			return
		}
		if tbl.NumRows() < 1 {
			t.Fatalf("accepted a table with %d rows", tbl.NumRows())
		}
		mins, maxs := tbl.Ranges()
		for i := range mins {
			if math.IsNaN(mins[i]) || math.IsInf(mins[i], 0) || math.IsNaN(maxs[i]) || math.IsInf(maxs[i], 0) {
				t.Fatalf("column %d spans [%v, %v]", i, mins[i], maxs[i])
			}
		}
	})
}
