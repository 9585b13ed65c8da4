package dataset

import (
	"math"
	"math/rand"
)

// Data-drift operators implementing the constructions in §2 and §4.1.2 of
// the paper: in-place updates and the sort-then-truncate-half construction
// used for the c1 experiments. (The paper's "20% of the rows are appended"
// scenario has no operator: no experiment or benchmark runs it.)

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
