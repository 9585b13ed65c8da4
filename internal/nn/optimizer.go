package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba) with bias correction and a
// constant learning rate. The hyperparameters are runtime values set once by
// NewAdam: as untyped constants, 1-0.9 would fold exactly to 0.1 and round to
// a different double than the runtime subtraction, moving every step.
type Adam struct {
	rate, beta1, beta2, eps float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns Adam with standard hyperparameters (β1=0.9, β2=0.999).
func NewAdam(rate float64) *Adam {
	return &Adam{rate: rate, beta1: 0.9, beta2: 0.999, eps: 1e-8}
}

// Step updates every parameter from the gradient in its G.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make(map[*Param][]float64)
		a.v = make(map[*Param][]float64)
	}
	a.t++
	c1 := 1 - math.Pow(a.beta1, float64(a.t))
	c2 := 1 - math.Pow(a.beta2, float64(a.t))
	for _, p := range params {
		m := a.m[p]
		v := a.v[p]
		if m == nil {
			m = make([]float64, len(p.W))
			v = make([]float64, len(p.W))
			a.m[p], a.v[p] = m, v
		}
		i := 0
		if simdEnabled && len(p.W) >= 4 {
			// The vector kernel performs the identical sequence of
			// correctly-rounded operations per element, so results match the
			// scalar loop bit-for-bit.
			n4 := len(p.W) &^ 3
			adamStepASM(&p.W[0], &p.G[0], &m[0], &v[0], n4,
				a.beta1, 1-a.beta1, a.beta2, 1-a.beta2, c1, c2, a.rate, a.eps)
			i = n4
		}
		for ; i < len(p.W); i++ {
			g := p.G[i]
			m[i] = a.beta1*m[i] + (1-a.beta1)*g
			v[i] = a.beta2*v[i] + (1-a.beta2)*g*g
			mHat := m[i] / c1
			vHat := v[i] / c2
			p.W[i] -= a.rate * mHat / (math.Sqrt(vHat) + a.eps)
		}
	}
}
