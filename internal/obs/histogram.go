package obs

import (
	"math"
	"sync/atomic"
)

// HistogramOpts shapes a log-scale histogram: bucket i covers values up to
// Start·Growth^i, with one overflow bucket above the last bound. Log-spaced
// buckets fit the two distributions Warper cares about — latencies spanning
// microseconds to seconds and q-errors spanning 1 to 10^6 — with a small,
// fixed bucket count.
type HistogramOpts struct {
	// Start is the upper bound of the first bucket (must be > 0).
	Start float64
	// Growth is the multiplicative factor between bucket bounds (must be > 1).
	Growth float64
	// Count is the number of finite buckets (≥ 1).
	Count int
}

func (o HistogramOpts) withDefaults() HistogramOpts {
	if o.Start <= 0 {
		o.Start = 1e-4
	}
	if o.Growth <= 1 {
		o.Growth = 2
	}
	if o.Count < 1 {
		o.Count = 24
	}
	return o
}

// LatencyOpts covers 100µs to ~420s in 22 buckets (growth ×2), suited to
// request and period-stage durations in seconds.
func LatencyOpts() HistogramOpts { return HistogramOpts{Start: 1e-4, Growth: 2, Count: 22} }

// QErrorOpts covers q-errors from 1 to ~10^6 in 20 buckets (growth ×2);
// q-errors are ≥ 1 by construction so Start=1 wastes nothing.
func QErrorOpts() HistogramOpts { return HistogramOpts{Start: 1, Growth: 2, Count: 20} }

// Histogram is a fixed-bucket log-scale histogram with atomic recording.
type Histogram struct {
	bounds  []float64 // ascending upper bounds of the finite buckets
	buckets []atomic.Int64
	over    atomic.Int64 // values above the last bound
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// NewHistogram builds a histogram from opts (zero fields take defaults).
func NewHistogram(opts HistogramOpts) *Histogram {
	opts = opts.withDefaults()
	h := &Histogram{
		bounds:  make([]float64, opts.Count),
		buckets: make([]atomic.Int64, opts.Count),
	}
	ub := opts.Start
	for i := range h.bounds {
		h.bounds[i] = ub
		ub *= opts.Growth
	}
	return h
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	// Binary search for the first bound ≥ v.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(h.bounds) {
		h.buckets[lo].Add(1)
	} else {
		h.over.Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Bucket is one exported histogram bucket: the count of observations at or
// below UpperBound. UpperBound is +Inf for the overflow bucket.
type Bucket struct {
	UpperBound float64
	Count      int64
}

// Buckets returns the non-cumulative per-bucket counts, overflow last. The
// snapshot is not atomic across buckets — concurrent observations may land
// between reads — which is fine for monitoring.
func (h *Histogram) Buckets() []Bucket {
	out := make([]Bucket, 0, len(h.bounds)+1)
	for i, ub := range h.bounds {
		out = append(out, Bucket{UpperBound: ub, Count: h.buckets[i].Load()})
	}
	out = append(out, Bucket{UpperBound: math.Inf(1), Count: h.over.Load()})
	return out
}

// Counts appends the non-cumulative per-bucket counts, overflow last, to
// dst[:0] and returns it; a dst with room for len(bounds)+1 values makes the
// call allocation-free. Like Buckets, the read is not atomic across buckets.
func (h *Histogram) Counts(dst []int64) []int64 {
	dst = dst[:0]
	for i := range h.buckets {
		dst = append(dst, h.buckets[i].Load())
	}
	return append(dst, h.over.Load())
}

// QuantileOfCounts estimates the q-quantile (q in [0,1]) of per-bucket
// counts laid out as Counts returns them, by log-linear interpolation inside
// the owning bucket. It returns 0 for no observations; overflow observations
// report the last finite bound. A log-bucket histogram is a vector of
// counters, so the difference of two Counts readings is the histogram of the
// interval between them: this is how a windowed quantile is read, by the
// health machine in process and by any scraper from two /metrics reads.
func (h *Histogram) QuantileOfCounts(counts []int64, q float64) float64 {
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	q = math.Min(math.Max(q, 0), 1)
	bounds := h.bounds
	rank := float64(q * float64(total))
	var cum float64
	for i := range bounds {
		c := float64(counts[i])
		if cum+c >= rank && c > 0 {
			lower := bounds[i] / geomRatio(bounds, i)
			if i == 0 {
				// First bucket: interpolate from 0 (latency) — but a
				// log-scale start near 1 (q-error) makes 0 misleading, so
				// use half the bound as the nominal lower edge.
				lower = bounds[0] / 2
			}
			frac := (rank - cum) / c
			return lower * math.Pow(bounds[i]/lower, frac)
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}

// geomRatio returns the growth ratio at bucket i (bounds are geometric, so
// any adjacent pair gives it).
func geomRatio(bounds []float64, i int) float64 {
	if i > 0 {
		return bounds[i] / bounds[i-1]
	}
	if len(bounds) > 1 {
		return bounds[1] / bounds[0]
	}
	return 2
}
