// Package nn is a small, dependency-free neural-network engine sufficient to
// reproduce every learned component in the Warper paper: the encoder 𝔼,
// generator 𝔾 and discriminator 𝔻 from Table 3, the LM-mlp cardinality
// estimator and the (simplified) MSCN model. It provides fully-connected
// layers, LeakyReLU/Tanh activations, L1/MSE/softmax-cross-entropy losses,
// SGD-with-momentum and Adam optimizers, per-sample Forward/Backward, and the
// batched minibatch step in batch.go (allocation-free, AVX2 kernels on amd64,
// byte-identical to the per-sample path).
//
// Training in the paper runs on CPU with tiny models (3×FC-128); it runs on
// the calling goroutine, which is also the paper's single-core cost model.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is one trainable tensor (stored flat) with its gradient accumulator.
type Param struct {
	W []float64 // values
	G []float64 // accumulated gradients
}

func newParam(n int) *Param { return &Param{W: make([]float64, n), G: make([]float64, n)} }

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// Layer is a differentiable network stage. Forward must be called before
// Backward; Backward receives dLoss/dOutput and returns dLoss/dInput while
// accumulating parameter gradients.
type Layer interface {
	Forward(x []float64) []float64
	Backward(gradOut []float64) []float64
	Params() []*Param
	// Clone returns a deep copy with independent parameters.
	Clone() Layer
	// OutSize reports the output width for a given input width.
	OutSize(in int) int
}

// Dense is a fully connected layer: y = W·x + b.
//
// Forward and Backward return buffers owned by the layer, reused across
// calls: a result is valid until the next call on the same layer; callers
// that retain it must copy.
type Dense struct {
	In, Out int
	Weight  *Param // Out×In, row-major
	Bias    *Param // Out

	lastIn []float64
	out    []float64
	gx     []float64
}

// NewDense builds a Dense layer with Xavier/Glorot-uniform initialization.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: invalid Dense dims %d->%d", in, out)) //lint:allow panicfree constructor dims are compile-time constants in practice
	}
	d := &Dense{In: in, Out: out, Weight: newParam(in * out), Bias: newParam(out)}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range d.Weight.W {
		d.Weight.W[i] = (rng.Float64()*2 - 1) * limit
	}
	return d
}

// Forward computes W·x + b, caching x for the backward pass. The returned
// slice is owned by the layer and reused on the next call.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense expects input %d, got %d", d.In, len(x))) //lint:allow panicfree shape mismatch is a programmer error
	}
	d.lastIn = x
	if d.out == nil {
		d.out = make([]float64, d.Out) //lint:allow hotpathalloc first-call lazy buffer; reused on every later forward
	}
	y := d.out
	for o := 0; o < d.Out; o++ {
		s := d.Bias.W[o]
		row := d.Weight.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			s += row[i] * xi
		}
		y[o] = s
	}
	return y
}

// Backward accumulates dL/dW and dL/db and returns dL/dx (a layer-owned
// buffer, reused on the next call).
func (d *Dense) Backward(gradOut []float64) []float64 {
	if len(gradOut) != d.Out {
		panic(fmt.Sprintf("nn: Dense backward expects grad %d, got %d", d.Out, len(gradOut))) //lint:allow panicfree shape mismatch is a programmer error
	}
	if d.gx == nil {
		d.gx = make([]float64, d.In)
	}
	gx := d.gx
	for i := range gx {
		gx[i] = 0
	}
	for o := 0; o < d.Out; o++ {
		g := gradOut[o]
		if g == 0 {
			continue
		}
		d.Bias.G[o] += g
		row := d.Weight.W[o*d.In : (o+1)*d.In]
		grow := d.Weight.G[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += g * d.lastIn[i]
			gx[i] += g * row[i]
		}
	}
	return gx
}

// Params returns the weight and bias tensors.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Clone returns a deep copy of the layer.
func (d *Dense) Clone() Layer {
	c := &Dense{In: d.In, Out: d.Out, Weight: newParam(d.In * d.Out), Bias: newParam(d.Out)}
	copy(c.Weight.W, d.Weight.W)
	copy(c.Bias.W, d.Bias.W)
	return c
}

// OutSize implements Layer.
func (d *Dense) OutSize(int) int { return d.Out }

// ensureLen returns buf resized to n, reallocating only when capacity is
// exceeded. It is the growth primitive behind the layer-owned buffers.
func ensureLen(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n) //lint:allow hotpathalloc grow-once primitive; steady state returns the resliced buffer
	}
	return buf[:n]
}

// LeakyReLU applies max(x, alpha*x) elementwise. The paper's Table 3 uses
// leaky ReLU between every pair of FC layers. Forward/Backward results are
// layer-owned buffers, reused across calls.
type LeakyReLU struct {
	Alpha  float64
	lastIn []float64
	out    []float64
	gx     []float64
}

// NewLeakyReLU returns a LeakyReLU with the conventional slope 0.01.
func NewLeakyReLU() *LeakyReLU { return &LeakyReLU{Alpha: 0.01} }

// Forward implements Layer.
func (l *LeakyReLU) Forward(x []float64) []float64 {
	l.lastIn = x
	l.out = ensureLen(l.out, len(x))
	y := l.out
	for i, v := range x {
		if v >= 0 {
			y[i] = v
		} else {
			y[i] = l.Alpha * v
		}
	}
	return y
}

// Backward implements Layer.
func (l *LeakyReLU) Backward(gradOut []float64) []float64 {
	l.gx = ensureLen(l.gx, len(gradOut))
	gx := l.gx
	for i, g := range gradOut {
		if l.lastIn[i] >= 0 {
			gx[i] = g
		} else {
			gx[i] = l.Alpha * g
		}
	}
	return gx
}

// Params implements Layer (no parameters).
func (l *LeakyReLU) Params() []*Param { return nil }

// Clone implements Layer.
func (l *LeakyReLU) Clone() Layer { return &LeakyReLU{Alpha: l.Alpha} }

// OutSize implements Layer.
func (l *LeakyReLU) OutSize(in int) int { return in }

// Tanh applies the hyperbolic tangent elementwise. Forward/Backward results
// are layer-owned buffers, reused across calls.
type Tanh struct {
	lastOut []float64
	gx      []float64
}

// NewTanh returns a Tanh activation.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (l *Tanh) Forward(x []float64) []float64 {
	l.lastOut = ensureLen(l.lastOut, len(x))
	y := l.lastOut
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	return y
}

// Backward implements Layer.
func (l *Tanh) Backward(gradOut []float64) []float64 {
	l.gx = ensureLen(l.gx, len(gradOut))
	gx := l.gx
	for i, g := range gradOut {
		t := l.lastOut[i]
		gx[i] = g * (1 - t*t)
	}
	return gx
}

// Params implements Layer.
func (l *Tanh) Params() []*Param { return nil }

// Clone implements Layer.
func (l *Tanh) Clone() Layer { return &Tanh{} }

// OutSize implements Layer.
func (l *Tanh) OutSize(in int) int { return in }
