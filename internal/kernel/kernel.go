// Package kernel implements kernel ridge regression (KRR) with polynomial
// and radial-basis-function kernels. It backs the LM-ply and LM-rbf
// cardinality-estimator variants from §4.1.2 of the Warper paper.
//
// Substitution note (documented in DESIGN.md): the paper uses sklearn SVR
// with 5-degree polynomial and RBF kernels. KRR is the least-squares sibling
// of SVR over the same kernels — a kernel regressor that must be re-trained
// from scratch on model updates, which is the only property Warper's
// adaptation loop depends on.
package kernel

import (
	"fmt"
	"math"
	"math/rand"
)

// Kernel computes k(x, y) for two feature vectors.
type Kernel interface {
	Eval(x, y []float64) float64
}

// RBF is the Gaussian kernel exp(−γ‖x−y‖²).
type RBF struct{ Gamma float64 }

// Eval implements Kernel.
func (k RBF) Eval(x, y []float64) float64 {
	var s float64
	for i := range x {
		d := x[i] - y[i]
		s += float64(d * d)
	}
	return math.Exp(-k.Gamma * s)
}

// Polynomial is (γ·x·y + c)^d. The paper's LM-ply uses degree 5.
type Polynomial struct {
	Degree int
	Gamma  float64
	Coef0  float64
}

// Eval implements Kernel.
func (k Polynomial) Eval(x, y []float64) float64 {
	var dot float64
	for i := range x {
		dot += float64(x[i] * y[i])
	}
	return math.Pow(float64(k.Gamma*dot)+k.Coef0, float64(k.Degree))
}

// Config controls KRR fitting.
type Config struct {
	Kernel     Kernel
	Lambda     float64 // ridge regularization strength
	MaxAnchors int     // subsample cap on support points (0 = no cap)
}

// Regressor is a fitted kernel ridge regression model:
// f(x) = Σ_i α_i k(x_i, x).
type Regressor struct {
	cfg     Config
	anchors [][]float64
	alpha   []float64
}

// Fit solves (K + λI)α = y on (a subsample of) the training set. rng is used
// only when subsampling; pass nil to keep the first MaxAnchors rows.
func Fit(X [][]float64, y []float64, cfg Config, rng *rand.Rand) (*Regressor, error) {
	if len(X) != len(y) {
		return nil, fmt.Errorf("kernel: X has %d rows but y has %d", len(X), len(y))
	}
	if cfg.Kernel == nil {
		return nil, fmt.Errorf("kernel: nil kernel")
	}
	n := len(X)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	if cfg.MaxAnchors > 0 && n > cfg.MaxAnchors {
		if rng != nil {
			rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		}
		idx = idx[:cfg.MaxAnchors]
		n = cfg.MaxAnchors
	}
	r := &Regressor{cfg: cfg}
	if n == 0 {
		return r, nil
	}
	r.anchors = make([][]float64, n)
	ys := make([]float64, n)
	for i, j := range idx {
		r.anchors[i] = X[j]
		ys[i] = y[j]
	}
	// Build K + λI: row i computes the upper triangle K[i][j≥i] and mirrors
	// it into K[j][i].
	K := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			v := cfg.Kernel.Eval(r.anchors[i], r.anchors[j])
			K[i*n+j] = v
			K[j*n+i] = v
		}
		K[i*n+i] += cfg.Lambda
	}
	alpha, err := solveCholesky(K, ys, n)
	if err != nil {
		return nil, err
	}
	r.alpha = alpha
	return r, nil
}

// Predict returns f(x) = Σ α_i k(anchor_i, x).
func (r *Regressor) Predict(x []float64) float64 {
	var s float64
	for i, a := range r.anchors {
		s += float64(r.alpha[i] * r.cfg.Kernel.Eval(a, x))
	}
	return s
}

// solveCholesky solves the symmetric positive-definite system A x = b where A
// is n×n row-major. A is destroyed.
func solveCholesky(A, b []float64, n int) ([]float64, error) {
	// Factor A = L·Lᵀ in place (lower triangle).
	for j := 0; j < n; j++ {
		d := A[j*n+j]
		for k := 0; k < j; k++ {
			d -= float64(A[j*n+k] * A[j*n+k])
		}
		if d <= 0 {
			return nil, fmt.Errorf("kernel: matrix not positive definite at pivot %d (%g); increase Lambda", j, d)
		}
		ljj := math.Sqrt(d)
		A[j*n+j] = ljj
		for i := j + 1; i < n; i++ {
			s := A[i*n+j]
			for k := 0; k < j; k++ {
				s -= float64(A[i*n+k] * A[j*n+k])
			}
			A[i*n+j] = s / ljj
		}
	}
	// Forward substitution L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= float64(A[i*n+k] * y[k])
		}
		y[i] = s / A[i*n+i]
	}
	// Back substitution Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= float64(A[k*n+i] * x[k])
		}
		x[i] = s / A[i*n+i]
	}
	return x, nil
}
