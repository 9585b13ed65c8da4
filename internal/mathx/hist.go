package mathx

import "math"

// Histogram is a normalized frequency histogram over a fixed number of
// buckets. It is the building block of the discrete Jensen-Shannon workload
// drift metric from §3.1 of the paper.
type Histogram struct {
	Freq Vector // normalized frequencies; sums to 1 if any observation was added
	n    int
}

// NewHistogram returns a histogram with the given number of buckets.
func NewHistogram(buckets int) *Histogram {
	if buckets <= 0 {
		panic("mathx: histogram needs at least one bucket")
	}
	return &Histogram{Freq: NewVector(buckets)}
}

// AddBucket increments bucket b. Out-of-range buckets are clamped.
func (h *Histogram) AddBucket(b int) {
	if b < 0 {
		b = 0
	}
	if b >= len(h.Freq) {
		b = len(h.Freq) - 1
	}
	h.Freq[b]++
	h.n++
}

// Count returns the number of observations added.
func (h *Histogram) Count() int { return h.n }

// Normalized returns the frequency vector scaled to sum to 1. An empty
// histogram yields a uniform distribution so divergence computations remain
// well defined.
func (h *Histogram) Normalized() Vector {
	out := h.Freq.Clone()
	if h.n == 0 {
		u := 1 / float64(len(out))
		for i := range out {
			out[i] = u
		}
		return out
	}
	inv := 1 / float64(h.n)
	for i := range out {
		out[i] *= inv
	}
	return out
}

// klEps is the smoothing constant added to every bucket before computing KL,
// matching the paper's "to prevent numeric error, we add a small constant to
// each H(x)".
const klEps = 1e-9

// KLDivergence returns KL(P||Q) over two discrete distributions of equal
// length, with eps smoothing and renormalization.
func KLDivergence(p, q Vector) float64 {
	mustSameLen(len(p), len(q))
	ps := smooth(p)
	qs := smooth(q)
	var s float64
	for i := range ps {
		s += float64(ps[i] * (math.Log(ps[i]) - math.Log(qs[i])))
	}
	if s < 0 { // numeric guard; KL is non-negative
		s = 0
	}
	return s
}

// JSDivergence returns the Jensen-Shannon divergence between two discrete
// distributions, normalized to [0,1] (base-2): 0 means identical
// distributions, 1 means disjoint support. This is the symmetric measure
// δ_js(A,B) = ½(KL(A,M)+KL(B,M)) with M = ½(A+B) from §3.1.
func JSDivergence(p, q Vector) float64 {
	mustSameLen(len(p), len(q))
	ps := smooth(p)
	qs := smooth(q)
	m := NewVector(len(ps))
	for i := range m {
		m[i] = 0.5 * (ps[i] + qs[i])
	}
	js := float64(0.5*KLDivergence(ps, m)) + float64(0.5*KLDivergence(qs, m))
	js /= math.Ln2 * 1 // convert nats to bits; max JS in bits is 1
	return Clamp(js, 0, 1)
}

func smooth(p Vector) Vector {
	out := make(Vector, len(p))
	var sum float64
	for i, x := range p {
		if x < 0 {
			x = 0
		}
		out[i] = x + klEps
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}
