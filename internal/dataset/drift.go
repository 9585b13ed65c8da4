package dataset

import (
	"math"
	"math/rand"
)

// Data-drift operators implementing the constructions in §2 and §4.1.2 of
// the paper: appends, in-place updates, and the sort-then-truncate-half
// construction used for the c1 experiments.

// AppendDrift appends frac·NumRows new rows drawn by resampling existing rows
// and shifting real columns by `shift` standard deviations, modelling the
// paper's "20% of the rows are appended" scenario.
func AppendDrift(t *Table, frac, shift float64, rng *rand.Rand) {
	n := t.NumRows()
	if n == 0 || frac <= 0 {
		return
	}
	// Precompute per-column std for the shift.
	stds := make([]float64, len(t.Cols))
	for j, c := range t.Cols {
		stds[j] = colStd(c.Vals)
	}
	add := int(float64(n) * frac)
	row := make([]float64, len(t.Cols))
	for i := 0; i < add; i++ {
		src := rng.Intn(n)
		t.Row(src, row)
		for j, c := range t.Cols {
			if c.Type == Real || c.Type == Date {
				row[j] += float64(shift * stds[j] * (0.5 + float64(rng.Float64())))
			} else if rng.Float64() < 0.3 {
				// Occasionally remap categorical values.
				row[j] = c.Vals[rng.Intn(n)]
			}
		}
		t.AppendRow(row)
	}
}

// UpdateDrift perturbs frac·NumRows randomly chosen rows in place: real
// columns get Gaussian noise scaled by their std, categorical columns are
// resampled. This models the paper's "100% of the rows are updated" scenario.
func UpdateDrift(t *Table, frac, noise float64, rng *rand.Rand) {
	n := t.NumRows()
	if n == 0 || frac <= 0 {
		return
	}
	stds := make([]float64, len(t.Cols))
	for j, c := range t.Cols {
		stds[j] = colStd(c.Vals)
	}
	count := int(float64(n) * frac)
	for i := 0; i < count; i++ {
		r := rng.Intn(n)
		for j, c := range t.Cols {
			if c.Type == Real || c.Type == Date {
				c.Vals[r] += float64(rng.NormFloat64() * noise * stds[j])
			} else if rng.Float64() < 0.5 {
				c.Vals[r] = c.Vals[rng.Intn(n)]
			}
		}
		t.ChangedRows++
	}
	t.Version++
}

// SortTruncateHalf sorts the table by the given column and keeps the lower
// half — the exact c1 data-drift construction from §4.1.2 ("we sort the
// dataset by one column and truncate the table in half to differentiate the
// data distributions").
func SortTruncateHalf(t *Table, col int) {
	t.SortByColumn(col)
	t.Truncate(t.NumRows() / 2)
}

func colStd(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	var s float64
	for _, v := range vals {
		d := v - mean
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(vals)))
}
