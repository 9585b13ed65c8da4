package mathx

// PCA holds a fitted principal-component projection: the top-k eigenvectors
// of the sample covariance of the fitted rows, together with the column means
// used for centering. The paper uses this both to visualize workloads in 2-d
// (Figures 1, 5, 7) and to reduce predicates to k dims inside the
// Jensen-Shannon drift metric (§3.1).
type PCA struct {
	K          int     // number of retained components
	Means      Vector  // column means of the fitting data
	Components *Matrix // d×k, eigenvectors as columns, unit norm
	Eigvals    Vector  // top-k eigenvalues, descending
}

// FitPCA fits a k-component PCA to the rows of X (n×d). If k exceeds d it is
// reduced to d. A degenerate input (n<2) yields a projection onto the first k
// coordinate axes so that downstream code keeps working.
func FitPCA(X *Matrix, k int) *PCA {
	d := X.Cols
	if k > d {
		k = d
	}
	if k < 1 {
		k = 1
		if d == 0 {
			panic("mathx: FitPCA on zero-column matrix")
		}
	}
	cov, means := Covariance(X)
	p := &PCA{K: k, Means: means, Components: NewMatrix(d, k), Eigvals: NewVector(k)}
	if X.Rows < 2 {
		for c := 0; c < k; c++ {
			p.Components.Set(c, c, 1)
		}
		return p
	}
	vals, vecs := JacobiEigen(cov)
	for c := 0; c < k; c++ {
		p.Eigvals[c] = vals[c]
		for r := 0; r < d; r++ {
			p.Components.Set(r, c, vecs.At(r, c))
		}
	}
	return p
}

// Project maps a single d-dim row to its k-dim principal-component scores.
func (p *PCA) Project(row Vector) Vector {
	centered := row.Sub(p.Means)
	out := NewVector(p.K)
	for c := 0; c < p.K; c++ {
		var s float64
		for r := 0; r < len(centered); r++ {
			s += float64(centered[r] * p.Components.At(r, c))
		}
		out[c] = s
	}
	return out
}

// ProjectAll maps every row of X to PCA space, returning an n×k matrix.
func (p *PCA) ProjectAll(X *Matrix) *Matrix {
	out := NewMatrix(X.Rows, p.K)
	for i := 0; i < X.Rows; i++ {
		copy(out.Data[i*p.K:(i+1)*p.K], p.Project(X.Row(i)))
	}
	return out
}
