package mathx

import (
	"math"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zero Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("mathx: negative matrix dimensions")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Covariance returns the d×d covariance matrix of the rows of X (n×d), along
// with the column means. Rows are observations.
func Covariance(X *Matrix) (*Matrix, Vector) {
	n, d := X.Rows, X.Cols
	means := NewVector(d)
	for i := 0; i < n; i++ {
		means.AddInPlace(X.Row(i), 1)
	}
	if n > 0 {
		means = means.Scale(1 / float64(n))
	}
	cov := NewMatrix(d, d)
	if n < 2 {
		return cov, means
	}
	for i := 0; i < n; i++ {
		row := X.Row(i)
		for a := 0; a < d; a++ {
			da := row[a] - means[a]
			if da == 0 {
				continue
			}
			for b := a; b < d; b++ {
				cov.Data[a*d+b] += da * (row[b] - means[b])
			}
		}
	}
	inv := 1 / float64(n-1)
	for a := 0; a < d; a++ {
		for b := a; b < d; b++ {
			v := cov.At(a, b) * inv
			cov.Set(a, b, v)
			cov.Set(b, a, v)
		}
	}
	return cov, means
}

// JacobiEigen computes the eigenvalues and eigenvectors of a symmetric matrix
// using the cyclic Jacobi method. It returns eigenvalues sorted descending and
// the corresponding eigenvectors as matrix columns. The input is not modified.
func JacobiEigen(sym *Matrix) (Vector, *Matrix) {
	if sym.Rows != sym.Cols {
		panic("mathx: JacobiEigen requires a square matrix")
	}
	n := sym.Rows
	a := sym.Clone()
	v := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		v.Set(i, i, 1)
	}
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		// Sum of squares of off-diagonal elements.
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += a.At(i, j) * a.At(i, j)
			}
		}
		if off < 1e-22 {
			break
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := a.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := a.At(p, p), a.At(q, q)
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+theta*theta))
				} else {
					t = -1 / (-theta + math.Sqrt(1+theta*theta))
				}
				c := 1 / math.Sqrt(1+t*t)
				s := t * c
				// Rotate rows/cols p and q of a.
				for k := 0; k < n; k++ {
					akp, akq := a.At(k, p), a.At(k, q)
					a.Set(k, p, c*akp-s*akq)
					a.Set(k, q, s*akp+c*akq)
				}
				for k := 0; k < n; k++ {
					apk, aqk := a.At(p, k), a.At(q, k)
					a.Set(p, k, c*apk-s*aqk)
					a.Set(q, k, s*apk+c*aqk)
				}
				// Accumulate the rotation into v.
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, c*vkp-s*vkq)
					v.Set(k, q, s*vkp+c*vkq)
				}
			}
		}
	}
	vals := NewVector(n)
	for i := 0; i < n; i++ {
		vals[i] = a.At(i, i)
	}
	// Sort eigenvalues descending, permuting eigenvector columns alongside.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < n; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if vals[idx[j]] > vals[idx[best]] {
				best = j
			}
		}
		idx[i], idx[best] = idx[best], idx[i]
	}
	sortedVals := NewVector(n)
	vecs := NewMatrix(n, n)
	for c := 0; c < n; c++ {
		sortedVals[c] = vals[idx[c]]
		for r := 0; r < n; r++ {
			vecs.Set(r, c, v.At(r, idx[c]))
		}
	}
	return sortedVals, vecs
}
