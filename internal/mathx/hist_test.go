package mathx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramAddAndNormalize(t *testing.T) {
	h := NewHistogram(4)
	h.AddBucket(0)
	h.AddBucket(0)
	h.AddBucket(3)
	h.AddBucket(99) // clamped to 3
	h.AddBucket(-5) // clamped to 0
	n := h.Normalized()
	if !almostEq(n[0], 0.6, 1e-12) || !almostEq(n[3], 0.4, 1e-12) {
		t.Errorf("Normalized = %v", n)
	}
	if h.n != 5 {
		t.Errorf("observations = %d", h.n)
	}
}

func TestEmptyHistogramIsUniform(t *testing.T) {
	h := NewHistogram(5)
	n := h.Normalized()
	for _, v := range n {
		if !almostEq(v, 0.2, 1e-12) {
			t.Errorf("empty histogram not uniform: %v", n)
		}
	}
}

func TestKLOfIdenticalIsZero(t *testing.T) {
	p := Vector{0.25, 0.25, 0.5}
	if got := KLDivergence(p, p); !almostEq(got, 0, 1e-9) {
		t.Errorf("KL(p,p) = %v", got)
	}
}

func TestJSDivergenceBounds(t *testing.T) {
	p := Vector{1, 0, 0, 0}
	q := Vector{0, 0, 0, 1}
	js := JSDivergence(p, q)
	if !almostEq(js, 1, 1e-4) {
		t.Errorf("JS of disjoint = %v, want ~1", js)
	}
	if got := JSDivergence(p, p); !almostEq(got, 0, 1e-6) {
		t.Errorf("JS(p,p) = %v, want 0", got)
	}
}

// Property: JS is symmetric and within [0,1] for arbitrary non-negative inputs.
func TestJSProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		p := make(Vector, n)
		q := make(Vector, n)
		for i := 0; i < n; i++ {
			p[i] = abs1e6(raw[i])
			q[i] = abs1e6(raw[n+i])
		}
		a, b := JSDivergence(p, q), JSDivergence(q, p)
		if !almostEq(a, b, 1e-9) {
			return false
		}
		return a >= 0 && a <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Error(err)
	}
}

func abs1e6(x float64) float64 {
	if x != x || x > 1e6 || x < -1e6 { // NaN or huge
		return 1
	}
	if x < 0 {
		return -x
	}
	return x
}

// Property: KL is non-negative (Gibbs' inequality) after smoothing.
func TestKLNonNegative(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw) / 2
		p := make(Vector, n)
		q := make(Vector, n)
		for i := 0; i < n; i++ {
			p[i] = abs1e6(raw[i])
			q[i] = abs1e6(raw[n+i])
		}
		return KLDivergence(p, q) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}
