// Package mathx provides the small linear-algebra and statistics toolkit that
// the rest of the system builds on: dense vectors and matrices, covariance,
// a Jacobi eigen-decomposition used for PCA, multidimensional histograms and
// the Jensen-Shannon divergence used by the drift detector.
//
// Everything here is deliberately simple and allocation-conscious; the
// dimensionalities involved (predicate featurizations, PCA to 2..10 dims)
// are tiny, so clarity wins over asymptotic cleverness.
package mathx

import (
	"fmt"
	"math"
)

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Sub returns v - w. It panics if lengths differ.
func (v Vector) Sub(w Vector) Vector {
	mustSameLen(len(v), len(w))
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// Scale returns a*v.
func (v Vector) Scale(a float64) Vector {
	out := make(Vector, len(v))
	for i := range v {
		out[i] = a * v[i]
	}
	return out
}

// Dot returns the inner product of v and w. It panics if lengths differ.
func (v Vector) Dot(w Vector) float64 {
	mustSameLen(len(v), len(w))
	var s float64
	for i := range v {
		s += float64(v[i] * w[i])
	}
	return s
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// AddInPlace sets v = v + a*w. It panics if lengths differ.
func (v Vector) AddInPlace(w Vector, a float64) {
	mustSameLen(len(v), len(w))
	for i := range v {
		v[i] += float64(a * w[i])
	}
}

// Sum returns the sum of elements of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of v, or 0 for an empty vector.
func (v Vector) Mean() float64 {
	if len(v) == 0 {
		return 0
	}
	return v.Sum() / float64(len(v))
}

// Std returns the population standard deviation of v, or 0 for vectors with
// fewer than two elements.
func (v Vector) Std() float64 {
	if len(v) < 2 {
		return 0
	}
	m := v.Mean()
	var s float64
	for _, x := range v {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(v)))
}

func mustSameLen(a, b int) {
	if a != b {
		panic(fmt.Sprintf("mathx: length mismatch %d vs %d", a, b))
	}
}

// Clamp returns x limited to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// GeoMean returns the geometric mean of xs. All values must be positive; it
// returns 0 for an empty slice.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		if x <= 0 {
			panic("mathx: GeoMean requires positive values")
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
