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
	if col(tbl, "a").Type != Real || col(tbl, "city").Type != Categorical {
		t.Error("type inference wrong")
	}
	// Dictionary encoding: rome=0, oslo=1, rome=0.
	city := col(tbl, "city").Vals
	if city[0] != 0 || city[1] != 1 || city[2] != 0 {
		t.Errorf("dict encoding = %v", city)
	}
	if col(tbl, "b").Vals[1] != 4.5 {
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
	if col(tbl, "day").Type != Date {
		t.Error("explicit Date type ignored")
	}
	if col(tbl, "kind").Type != Categorical {
		t.Error("explicit Categorical type ignored")
	}
	// Numeric categorical values are dictionary-encoded.
	if col(tbl, "kind").Vals[0] != 0 || col(tbl, "kind").Vals[1] != 1 {
		t.Errorf("categorical encoding = %v", col(tbl, "kind").Vals)
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

// TestFromCSVRejectsNaN: a NaN cell orders against nothing, so it has no
// place in the table's scan index and would give the schema a NaN domain
// bound; like ±Inf it is refused — in the first data row too, and under
// header autodetection — with an error that names the column and the row.
func TestFromCSVRejectsNaN(t *testing.T) {
	for _, tc := range []struct {
		in   string
		opts CSVOptions
		want string
	}{
		{"a,b\nnan,1\n2,3\n4,5\n6,7\n", CSVOptions{HasHeader: true}, `column "a", data row 1`},
		{"a,b\n2,1\n4,3\n6,NaN\n", CSVOptions{HasHeader: true}, `column "b", data row 3`},
		{"1,2\n3,NAN\n", CSVOptions{}, `column "col1", data row 2`},
	} {
		tbl, err := FromCSV("t", strings.NewReader(tc.in), tc.opts)
		if err == nil {
			t.Fatalf("%q: loaded %d rows, want an error", tc.in, tbl.NumRows())
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%q: error %q does not name %s", tc.in, err, tc.want)
		}
	}
}

// FuzzFromCSV throws arbitrary bytes at the CSV loader, with and without a
// header: it never panics, and every table it accepts has a row and only
// finite cells.
func FuzzFromCSV(f *testing.F) {
	f.Add([]byte("a,b,city\n1,2.5,rome\n3,4.5,oslo\n"), true)
	f.Add([]byte("1,2\n3,4\n"), false)
	f.Add([]byte("a,b\nnan,1\n2,inf\n"), true)
	f.Add([]byte("a,b\n"), true)
	f.Add([]byte("a,b\n1\n"), false)
	f.Add([]byte("nan,1\n2,3\n"), false)
	f.Add([]byte("a,b\n1,2\n3,NaN\n"), true)
	f.Fuzz(func(t *testing.T, data []byte, header bool) {
		tbl, err := FromCSV("fuzz", bytes.NewReader(data), CSVOptions{HasHeader: header})
		if err != nil {
			return
		}
		if tbl.NumRows() < 1 {
			t.Fatalf("accepted a table with %d rows", tbl.NumRows())
		}
		for _, col := range tbl.Cols {
			for r, v := range col.Vals {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("column %q, row %d: accepted %v", col.Name, r, v)
				}
			}
		}
	})
}
