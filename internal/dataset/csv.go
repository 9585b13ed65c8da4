package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// CSV loading lets users run the library on their own data: the original
// UCI datasets the paper evaluates (Higgs, PRSA, Poker) ship as CSV, so a
// deployment with those files reproduces the paper's exact setup.

// CSVOptions controls parsing.
type CSVOptions struct {
	// HasHeader treats the first row as column names (default true when the
	// first row fails to parse as numbers).
	HasHeader bool
	// Types assigns column types by name; unlisted columns default to Real,
	// except that non-numeric columns are dictionary-encoded as Categorical
	// automatically.
	Types map[string]ColType
	// MaxRows truncates the load (0 = unlimited).
	MaxRows int
}

// FromCSV reads a table from CSV. Non-numeric column values are
// dictionary-encoded into integer categorical ids, matching §4.1 of the
// paper ("for columns with categorical values, predicates are integer
// dictionary identifiers"). Input with no data rows is an error, and so is
// a NaN or ±Inf cell in a numeric column: either would give the schema a
// degenerate or infinite domain, and every normalized predicate over it
// would be garbage; a NaN cell also orders against nothing, and the
// table's scan index (SortedOrder) needs an order.
func FromCSV(name string, r io.Reader, opts CSVOptions) (*Table, error) {
	cr := csv.NewReader(r)
	cr.TrimLeadingSpace = true
	first, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read csv header: %w", err)
	}
	header := make([]string, len(first))
	var pending [][]string
	if opts.HasHeader || !allNumeric(first) {
		copy(header, first)
	} else {
		for i := range header {
			header[i] = fmt.Sprintf("col%d", i)
		}
		pending = append(pending, first)
	}

	nCols := len(header)
	raw := make([][]string, nCols)
	addRow := func(rec []string) error {
		if len(rec) != nCols {
			return fmt.Errorf("dataset: row has %d fields, want %d", len(rec), nCols)
		}
		for i, v := range rec {
			raw[i] = append(raw[i], strings.TrimSpace(v))
		}
		return nil
	}
	for _, rec := range pending {
		if err := addRow(rec); err != nil {
			return nil, err
		}
	}
	rows := len(pending)
	for opts.MaxRows == 0 || rows < opts.MaxRows {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read csv: %w", err)
		}
		if err := addRow(rec); err != nil {
			return nil, err
		}
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("dataset: csv has no data rows")
	}

	cols := make([]*Column, nCols)
	for i := 0; i < nCols; i++ {
		wantType, typed := Real, false
		if opts.Types != nil {
			if t, ok := opts.Types[header[i]]; ok {
				wantType, typed = t, true
			}
		}
		vals, numeric := parseNumeric(raw[i])
		if typed && wantType == Categorical || !numeric {
			cols[i] = &Column{Name: header[i], Type: Categorical, Vals: dictEncode(raw[i])}
			continue
		}
		for r, v := range vals {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return nil, fmt.Errorf("dataset: column %q, data row %d: non-finite value %q", header[i], r+1, raw[i][r])
			}
		}
		cols[i] = &Column{Name: header[i], Type: wantType, Vals: vals}
	}
	return NewTable(name, cols...), nil
}

func allNumeric(rec []string) bool {
	for _, v := range rec {
		if _, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err != nil {
			return false
		}
	}
	return true
}

func parseNumeric(vals []string) ([]float64, bool) {
	out := make([]float64, len(vals))
	for i, v := range vals {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, false
		}
		out[i] = f
	}
	return out, true
}

// dictEncode maps distinct strings to integer ids in first-seen order.
func dictEncode(vals []string) []float64 {
	dict := make(map[string]float64)
	out := make([]float64, len(vals))
	for i, v := range vals {
		id, ok := dict[v]
		if !ok {
			id = float64(len(dict))
			dict[v] = id
		}
		out[i] = id
	}
	return out
}
