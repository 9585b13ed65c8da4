package nn

// Mat is a row-major matrix view over a flat backing slice: row r occupies
// Data[r*Stride : r*Stride+Cols]. A Stride wider than Cols lets a Mat view a
// column slice of another matrix without copying; every batched kernel honours
// Stride.
type Mat struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewMat allocates a dense Rows×Cols matrix.
func NewMat(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Stride: cols, Data: make([]float64, rows*cols)}
}

// Row returns row r as a slice of length Cols.
func (m Mat) Row(r int) []float64 {
	off := r * m.Stride
	return m.Data[off : off+m.Cols : off+m.Cols]
}

// View returns a view of the first rows rows and cols columns. The backing
// array is shared.
func (m Mat) View(rows, cols int) Mat {
	return Mat{Rows: rows, Cols: cols, Stride: m.Stride, Data: m.Data}
}

// CopyFromRows fills the matrix from a slice of equal-length rows.
func (m Mat) CopyFromRows(rows [][]float64) {
	for r, src := range rows {
		copy(m.Row(r), src)
	}
}

// Resized returns a dense rows×cols matrix over m's backing array, allocating
// a new one only when its capacity is exceeded. Contents are unspecified. It
// is the growth primitive behind every reused batch buffer: keep the result
// where m was (`buf = buf.Resized(r, c)`) and the steady-state training loop
// never allocates.
func (m Mat) Resized(rows, cols int) Mat {
	need := rows * cols
	if cap(m.Data) < need {
		m.Data = make([]float64, need)
	}
	return Mat{Rows: rows, Cols: cols, Stride: cols, Data: m.Data[:need]}
}
