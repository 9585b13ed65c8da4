package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestVectorBasicOps(t *testing.T) {
	v := Vector{1, 2, 3}
	w := Vector{4, 5, 6}
	if got := v.Sub(w); got[0] != -3 || got[1] != -3 || got[2] != -3 {
		t.Errorf("Sub = %v", got)
	}
	if got := v.Scale(2); got[0] != 2 || got[1] != 4 || got[2] != 6 {
		t.Errorf("Scale = %v", got)
	}
	if got := v.Dot(w); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := v.Sum(); got != 6 {
		t.Errorf("Sum = %v, want 6", got)
	}
	if got := v.Mean(); got != 2 {
		t.Errorf("Mean = %v, want 2", got)
	}
}

func TestVectorLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vector{1}.Sub(Vector{1, 2})
}

func TestVectorNorm(t *testing.T) {
	v := Vector{3, 4}
	if !almostEq(v.Norm(), 5, 1e-12) {
		t.Errorf("Norm = %v, want 5", v.Norm())
	}
}

func TestVectorCloneIsIndependent(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases the original")
	}
}

func TestStd(t *testing.T) {
	v := Vector{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEq(v.Std(), 2, 1e-12) {
		t.Errorf("Std = %v, want 2", v.Std())
	}
	if (Vector{5}).Std() != 0 {
		t.Error("Std of singleton should be 0")
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{-1, 0, 1, 0}, {2, 0, 1, 1}, {0.5, 0, 1, 0.5},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); !almostEq(got, 2, 1e-12) {
		t.Errorf("GeoMean = %v, want 2", got)
	}
	if got := GeoMean(nil); got != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", got)
	}
}

func TestGeoMeanPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GeoMean([]float64{1, 0})
}

// Property: dot product is symmetric and Cauchy-Schwarz holds.
func TestDotProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		v, w := Vector(raw[:n]), Vector(raw[n:2*n])
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
		}
		d1, d2 := v.Dot(w), w.Dot(v)
		if d1 != d2 {
			return false
		}
		return math.Abs(d1) <= v.Norm()*w.Norm()*(1+1e-9)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
