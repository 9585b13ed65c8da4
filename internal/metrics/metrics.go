// Package metrics implements the paper's evaluation metrics: the q-error
// with floor θ (§4.1), its geometric mean GMQ, the accuracy-gap drift metric
// δ_m, and the relative adaptation speedup Δ(λ) that Tables 7, 8 and 10
// report.
package metrics

import (
	"log/slog"
	"math"
	"sort"

	"warper/internal/mathx"
)

// Theta is the q-error floor; the paper uses θ=10 following Dutt et al.
const Theta = 10

// QError returns q_θ(est, actual) = max(max(e,θ)/max(a,θ), max(a,θ)/max(e,θ)).
// It is ≥ 1, symmetric in its arguments, and equals 1 for a perfect estimate.
func QError(est, actual float64) float64 {
	return QErrorTheta(est, actual, Theta)
}

// QErrorTheta is QError with an explicit floor θ.
func QErrorTheta(est, actual, theta float64) float64 {
	e := math.Max(est, theta)
	a := math.Max(actual, theta)
	return math.Max(e/a, a/e)
}

// GMQ returns the geometric mean q-error over paired estimates and actuals.
// It returns 0 for empty input. A length mismatch is a malformed batch (a
// bug or bad feedback payload upstream); it is logged and reported as the
// neutral GMQ 1 rather than panicking, so a malformed feedback batch can
// never crash a serving process.
func GMQ(ests, actuals []float64) float64 {
	if len(ests) != len(actuals) {
		slog.Warn("metrics: GMQ length mismatch, reporting neutral GMQ",
			"estimates", len(ests), "actuals", len(actuals))
		return 1
	}
	if len(ests) == 0 {
		return 0
	}
	qs := make([]float64, len(ests))
	for i := range ests {
		qs[i] = QError(ests[i], actuals[i])
	}
	return mathx.GeoMean(qs)
}

// Curve is an adaptation trajectory: GMQ measured after the model has
// consumed Queries[i] new-workload queries. Points must be in increasing
// query order.
type Curve struct {
	Queries []float64
	GMQ     []float64
}

// Append adds a point to the curve.
func (c *Curve) Append(nQueries, gmq float64) {
	c.Queries = append(c.Queries, nQueries)
	c.GMQ = append(c.GMQ, gmq)
}

// Len returns the number of points.
func (c *Curve) Len() int { return len(c.Queries) }

// Final returns the last GMQ value, or +Inf for an empty curve.
func (c *Curve) Final() float64 {
	if len(c.GMQ) == 0 {
		return math.Inf(1)
	}
	return c.GMQ[len(c.GMQ)-1]
}

// Initial returns the first GMQ value (the error right after the drift, α),
// or +Inf for an empty curve.
func (c *Curve) Initial() float64 {
	if len(c.GMQ) == 0 {
		return math.Inf(1)
	}
	return c.GMQ[0]
}

// QueriesToReach returns the smallest number of queries at which the curve's
// GMQ first drops to target or below, linearly interpolating between points.
// It returns +Inf if the curve never reaches the target.
func (c *Curve) QueriesToReach(target float64) float64 {
	for i := range c.GMQ {
		if c.GMQ[i] <= target {
			if i == 0 {
				return c.Queries[0]
			}
			// Interpolate between points i-1 and i.
			g0, g1 := c.GMQ[i-1], c.GMQ[i]
			q0, q1 := c.Queries[i-1], c.Queries[i]
			if g0 == g1 {
				return q1
			}
			frac := (g0 - target) / (g0 - g1)
			return q0 + float64(frac*(q1-q0))
		}
	}
	return math.Inf(1)
}

// MedianSmooth returns a copy of the curve with a centered running-median
// filter of the given odd window applied to the GMQ values (endpoints keep
// shrunken windows). Experiment aggregation uses it to suppress transient
// single-point dips that would otherwise win λ-target crossings on noise.
func (c *Curve) MedianSmooth(window int) *Curve {
	if window < 3 || c.Len() < 3 {
		out := &Curve{}
		out.Queries = append(out.Queries, c.Queries...)
		out.GMQ = append(out.GMQ, c.GMQ...)
		return out
	}
	half := window / 2
	out := &Curve{}
	buf := make([]float64, 0, window)
	for i := range c.GMQ {
		if i == 0 {
			// The first point is α, the post-drift error before any
			// adaptation; it anchors the Δ targets and stays exact.
			out.Append(c.Queries[0], c.GMQ[0])
			continue
		}
		lo, hi := i-half, i+half
		if lo < 0 {
			lo = 0
		}
		if hi >= c.Len() {
			hi = c.Len() - 1
		}
		buf = append(buf[:0], c.GMQ[lo:hi+1]...)
		sort.Float64s(buf)
		m := buf[len(buf)/2]
		if len(buf)%2 == 0 {
			m = (buf[len(buf)/2-1] + buf[len(buf)/2]) / 2
		}
		out.Append(c.Queries[i], m)
	}
	return out
}

// Speedup computes the paper's relative adaptation speedup
// Δ(FT,λ)/Δ(A,λ): how many times fewer new-workload queries method A needs
// than fine-tuning to close a λ-fraction of the accuracy gap. α is taken
// from the FT curve's initial GMQ (the post-drift error) and β from the FT
// curve's final GMQ (the converged error), matching §4.1's definition.
//
// When method A never reaches the target the speedup is reported as the
// ratio with Δ(A)=+Inf, i.e. 0; when FT itself never reaches it (possible
// for λ<1 with a non-monotone curve) the result is clamped to 1.
func Speedup(ft, a *Curve, lambda float64) float64 {
	alpha := ft.Initial()
	beta := ft.Final()
	if math.IsInf(alpha, 1) || math.IsInf(beta, 1) {
		return 1
	}
	// Target GMQ after closing a λ-fraction of the gap: α − λ(α−β). (The
	// paper writes β + λ(α−β) but its worked example and Δ1 ="full
	// improvement" semantics correspond to this orientation.)
	target := alpha - float64(lambda*(alpha-beta))
	dFT := ft.QueriesToReach(target)
	dA := a.QueriesToReach(target)
	if math.IsInf(dFT, 1) {
		return 1
	}
	if math.IsInf(dA, 1) {
		return 0
	}
	if dA <= 0 {
		// Method A starts at or below the target; report the strongest
		// finite speedup observable from the data.
		dA = math.SmallestNonzeroFloat64
		if dFT <= 0 {
			return 1
		}
	}
	s := dFT / dA
	if math.IsInf(s, 1) {
		s = math.MaxFloat64
	}
	return s
}

// SpeedupTriple reports Δ.5, Δ.8 and Δ1, the three operating points used
// throughout the paper's tables.
func SpeedupTriple(ft, a *Curve) (d50, d80, d100 float64) {
	return Speedup(ft, a, 0.5), Speedup(ft, a, 0.8), Speedup(ft, a, 1.0)
}

// DeltaM is the blind drift metric δ_m from §4.1: the gap between the GMQ of
// the unmodified model on the new workload and the GMQ of a model trained
// exclusively on the new data/workload (the achievable error).
func DeltaM(unadaptedGMQ, oracleGMQ float64) float64 {
	d := unadaptedGMQ - oracleGMQ
	if d < 0 {
		return 0
	}
	return d
}
