package kernel

import (
	"math"
	"math/rand"
	"testing"
)

func TestRBFKernelIdentities(t *testing.T) {
	k := RBF{Gamma: 0.5}
	x := []float64{1, 2, 3}
	if got := k.Eval(x, x); math.Abs(got-1) > 1e-12 {
		t.Errorf("k(x,x) = %v, want 1", got)
	}
	y := []float64{4, 5, 6}
	if k.Eval(x, y) != k.Eval(y, x) {
		t.Error("RBF not symmetric")
	}
	if v := k.Eval(x, y); v <= 0 || v >= 1 {
		t.Errorf("RBF value out of (0,1): %v", v)
	}
}

func TestPolynomialKernel(t *testing.T) {
	k := Polynomial{Degree: 2, Gamma: 1, Coef0: 0}
	x := []float64{1, 2}
	y := []float64{3, 4}
	// (1*3 + 2*4)^2 = 121.
	if got := k.Eval(x, y); math.Abs(got-121) > 1e-12 {
		t.Errorf("poly = %v, want 121", got)
	}
	if k.Eval(x, y) != k.Eval(y, x) {
		t.Error("poly not symmetric")
	}
}

func TestCholeskySolveKnownSystem(t *testing.T) {
	// A = [[4,2],[2,3]], b = [10, 9]  →  x = [1.5, 2].
	A := []float64{4, 2, 2, 3}
	b := []float64{10, 9}
	x, err := solveCholesky(A, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1.5) > 1e-10 || math.Abs(x[1]-2) > 1e-10 {
		t.Errorf("x = %v, want [1.5 2]", x)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	A := []float64{1, 2, 2, 1} // eigenvalues 3 and -1
	if _, err := solveCholesky(A, []float64{1, 1}, 2); err == nil {
		t.Fatal("expected error for indefinite matrix")
	}
}

func TestKRRInterpolatesWithTinyLambda(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{1, 3, 2, 5}
	r, err := Fit(X, y, Config{Kernel: RBF{Gamma: 2}, Lambda: 1e-10}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if got := r.Predict(X[i]); math.Abs(got-y[i]) > 1e-3 {
			t.Errorf("f(%v) = %v, want %v", X[i], got, y[i])
		}
	}
}

func TestKRRGeneralizesSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(x float64) float64 { return math.Sin(3 * x) }
	var X [][]float64
	var y []float64
	for i := 0; i < 150; i++ {
		x := rng.Float64() * 2
		X = append(X, []float64{x})
		y = append(y, f(x))
	}
	r, err := Fit(X, y, Config{Kernel: RBF{Gamma: 4}, Lambda: 1e-6}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var mse float64
	for i := 0; i < 50; i++ {
		x := rng.Float64() * 2
		d := r.Predict([]float64{x}) - f(x)
		mse += d * d
	}
	if mse/50 > 1e-3 {
		t.Errorf("test MSE = %v", mse/50)
	}
}

func TestKRRPolynomialFitsQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x := rng.Float64()*2 - 1
		X = append(X, []float64{x})
		y = append(y, x*x)
	}
	r, err := Fit(X, y, Config{Kernel: Polynomial{Degree: 2, Gamma: 1, Coef0: 1}, Lambda: 1e-8}, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-0.5, 0, 0.5} {
		if got := r.Predict([]float64{x}); math.Abs(got-x*x) > 1e-3 {
			t.Errorf("f(%v) = %v, want %v", x, got, x*x)
		}
	}
}

func TestKRRSubsampling(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		y = append(y, 2*x)
	}
	r, err := Fit(X, y, Config{Kernel: RBF{Gamma: 1}, Lambda: 1e-4, MaxAnchors: 100}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.anchors) != 100 {
		t.Errorf("retained %d anchors, want 100", len(r.anchors))
	}
	if got := r.Predict([]float64{0.5}); math.Abs(got-1) > 0.1 {
		t.Errorf("f(0.5) = %v, want ~1", got)
	}
}

func TestKRREmptyData(t *testing.T) {
	r, err := Fit(nil, nil, Config{Kernel: RBF{Gamma: 1}, Lambda: 1e-3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Predict([]float64{1}); got != 0 {
		t.Errorf("empty model predicts %v", got)
	}
}

func TestFitLengthMismatch(t *testing.T) {
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Config{Kernel: RBF{Gamma: 1}, Lambda: 1e-3}, nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestFitNilKernel(t *testing.T) {
	if _, err := Fit([][]float64{{1}}, []float64{1}, Config{Lambda: 1}, nil); err == nil {
		t.Fatal("expected error")
	}
}
