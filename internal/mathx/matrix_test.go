package mathx

import (
	"math"
	"math/rand"
	"testing"
)

func TestCovarianceKnown(t *testing.T) {
	// Two perfectly correlated columns.
	X := &Matrix{Rows: 3, Cols: 2, Data: []float64{1, 2, 2, 4, 3, 6}}
	cov, means := Covariance(X)
	if !almostEq(means[0], 2, 1e-12) || !almostEq(means[1], 4, 1e-12) {
		t.Errorf("means = %v", means)
	}
	if !almostEq(cov.At(0, 0), 1, 1e-12) {
		t.Errorf("var(x) = %v, want 1", cov.At(0, 0))
	}
	if !almostEq(cov.At(1, 1), 4, 1e-12) {
		t.Errorf("var(y) = %v, want 4", cov.At(1, 1))
	}
	if !almostEq(cov.At(0, 1), 2, 1e-12) || !almostEq(cov.At(1, 0), 2, 1e-12) {
		t.Errorf("cov = %v", cov.Data)
	}
}

func TestCovarianceDegenerate(t *testing.T) {
	X := &Matrix{Rows: 1, Cols: 2, Data: []float64{1, 2}}
	cov, means := Covariance(X)
	if means[0] != 1 || means[1] != 2 {
		t.Errorf("means = %v", means)
	}
	for _, v := range cov.Data {
		if v != 0 {
			t.Errorf("cov of single row should be zero, got %v", cov.Data)
		}
	}
}

func TestJacobiEigenDiagonal(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 2, Data: []float64{3, 0, 0, 1}}
	vals, vecs := JacobiEigen(m)
	if !almostEq(vals[0], 3, 1e-10) || !almostEq(vals[1], 1, 1e-10) {
		t.Errorf("vals = %v", vals)
	}
	// First eigenvector should be ±e1.
	if !almostEq(math.Abs(vecs.At(0, 0)), 1, 1e-10) {
		t.Errorf("vecs = %v", vecs.Data)
	}
}

func TestJacobiEigenKnown2x2(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 3 and 1.
	m := &Matrix{Rows: 2, Cols: 2, Data: []float64{2, 1, 1, 2}}
	vals, vecs := JacobiEigen(m)
	if !almostEq(vals[0], 3, 1e-10) || !almostEq(vals[1], 1, 1e-10) {
		t.Fatalf("vals = %v", vals)
	}
	// Check A v = λ v for the first column.
	v0 := Vector{vecs.At(0, 0), vecs.At(1, 0)}
	for i := range v0 {
		if av := m.Row(i).Dot(v0); !almostEq(av, 3*v0[i], 1e-9) {
			t.Errorf("(A*v)[%d] = %v, want 3v = %v", i, av, 3*v0[i])
		}
	}
}

func TestJacobiEigenReconstructsRandomSymmetric(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		n := 3 + trial
		m := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				x := rng.NormFloat64()
				m.Set(i, j, x)
				m.Set(j, i, x)
			}
		}
		vals, vecs := JacobiEigen(m)
		// Reconstruct V diag(vals) V^T and compare to m.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				var rec float64
				for k := 0; k < n; k++ {
					rec += vecs.At(i, k) * vals[k] * vecs.At(j, k)
				}
				if !almostEq(rec, m.At(i, j), 1e-8) {
					t.Fatalf("trial %d: reconstruction mismatch at (%d,%d): %v vs %v", trial, i, j, rec, m.At(i, j))
				}
			}
		}
		// Eigenvalues sorted descending.
		for i := 1; i < n; i++ {
			if vals[i] > vals[i-1]+1e-12 {
				t.Fatalf("eigenvalues not sorted: %v", vals)
			}
		}
	}
}

func TestPCARecoversDominantDirection(t *testing.T) {
	// Points along the diagonal y=x with tiny noise: first PC must be ~(1,1)/√2.
	rng := rand.New(rand.NewSource(3))
	X := NewMatrix(200, 2)
	for i := 0; i < X.Rows; i++ {
		x := rng.NormFloat64() * 10
		X.Set(i, 0, x+rng.NormFloat64()*0.01)
		X.Set(i, 1, x+rng.NormFloat64()*0.01)
	}
	p := FitPCA(X, 2)
	c0 := math.Abs(p.Components.At(0, 0))
	c1 := math.Abs(p.Components.At(1, 0))
	if !almostEq(c0, 1/math.Sqrt2, 0.01) || !almostEq(c1, 1/math.Sqrt2, 0.01) {
		t.Errorf("first PC = (%v,%v), want ~(0.707,0.707)", c0, c1)
	}
	if p.Eigvals[0] < 50*p.Eigvals[1] {
		t.Errorf("eigenvalue gap too small: %v", p.Eigvals)
	}
}

func TestPCAProjectCentersData(t *testing.T) {
	X := &Matrix{Rows: 3, Cols: 2, Data: []float64{1, 0, 3, 0, 5, 0}}
	p := FitPCA(X, 1)
	// Projection of the mean point must be ~0.
	z := p.Project(Vector{3, 0})
	if !almostEq(z[0], 0, 1e-10) {
		t.Errorf("projection of mean = %v, want 0", z[0])
	}
	all := p.ProjectAll(X)
	if all.Rows != 3 || all.Cols != 1 {
		t.Fatalf("ProjectAll dims = %dx%d", all.Rows, all.Cols)
	}
}

func TestPCADegenerateInput(t *testing.T) {
	p := FitPCA(&Matrix{Rows: 1, Cols: 3, Data: []float64{1, 2, 3}}, 2)
	z := p.Project(Vector{1, 2, 3})
	if len(z) != 2 {
		t.Fatalf("Project len = %d", len(z))
	}
}
