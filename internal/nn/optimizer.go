package nn

import "math"

// Optimizer applies accumulated gradients to parameters. EndEpoch lets
// schedules (like the paper's half-decay every 10 epochs) advance.
type Optimizer interface {
	Step(params []*Param)
	EndEpoch()
	// LR reports the current learning rate, for logging and tests.
	LR() float64
}

// SGD is stochastic gradient descent with optional momentum and the paper's
// learning-rate schedule: §3.5 trains with lr=1e-3 and halves it every 10
// epochs (DecayEvery=10, DecayFactor=0.5).
type SGD struct {
	Rate        float64
	Momentum    float64
	DecayEvery  int     // epochs between decays; 0 disables decay
	DecayFactor float64 // multiplier applied at each decay (e.g. 0.5)

	epoch    int
	velocity map[*Param][]float64
}

// NewSGD returns plain SGD with the given learning rate.
func NewSGD(rate float64) *SGD { return &SGD{Rate: rate} }

// Step implements Optimizer.
func (s *SGD) Step(params []*Param) {
	if s.Momentum == 0 {
		for _, p := range params {
			for i := range p.W {
				p.W[i] -= s.Rate * p.G[i]
			}
		}
		return
	}
	if s.velocity == nil {
		s.velocity = make(map[*Param][]float64)
	}
	for _, p := range params {
		v := s.velocity[p]
		if v == nil {
			v = make([]float64, len(p.W))
			s.velocity[p] = v
		}
		for i := range p.W {
			v[i] = s.Momentum*v[i] - s.Rate*p.G[i]
			p.W[i] += v[i]
		}
	}
}

// EndEpoch implements Optimizer, applying the decay schedule.
func (s *SGD) EndEpoch() {
	s.epoch++
	if s.DecayEvery > 0 && s.epoch%s.DecayEvery == 0 {
		f := s.DecayFactor
		if f <= 0 {
			f = 0.5
		}
		s.Rate *= f
	}
}

// LR implements Optimizer.
func (s *SGD) LR() float64 { return s.Rate }

// Adam is the Adam optimizer (Kingma & Ba) with bias correction.
type Adam struct {
	Rate    float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns Adam with standard hyperparameters (β1=0.9, β2=0.999).
func NewAdam(rate float64) *Adam {
	return &Adam{Rate: rate, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(params []*Param) {
	if a.m == nil {
		a.m = make(map[*Param][]float64)
		a.v = make(map[*Param][]float64)
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
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
				a.Beta1, 1-a.Beta1, a.Beta2, 1-a.Beta2, c1, c2, a.Rate, a.Epsilon)
			i = n4
		}
		for ; i < len(p.W); i++ {
			g := p.G[i]
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mHat := m[i] / c1
			vHat := v[i] / c2
			p.W[i] -= a.Rate * mHat / (math.Sqrt(vHat) + a.Epsilon)
		}
	}
}

// EndEpoch implements Optimizer (no schedule).
func (a *Adam) EndEpoch() {}

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.Rate }
