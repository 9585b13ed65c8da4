// Package nn is a small, dependency-free neural-network engine sufficient to
// reproduce every learned component in the Warper paper: the encoder 𝔼,
// generator 𝔾 and discriminator 𝔻 from Table 3, the LM-mlp cardinality
// estimator and the (simplified) MSCN model. It provides fully-connected
// layers, LeakyReLU/Tanh activations, L1/MSE/softmax-cross-entropy losses,
// the Adam optimizer, a per-sample Forward for single-row inference, and the
// batched compute in batch.go — the only training path (allocation-free,
// AVX2 kernels on amd64, forward outputs byte-identical to Forward).
//
// Training in the paper runs on CPU with tiny models (3×FC-128); it runs on
// the calling goroutine, which is also the paper's single-core cost model.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is one trainable tensor (stored flat) with its gradient. The batched
// backward pass assigns G outright (see Network.BatchBackward).
type Param struct {
	W []float64 // values
	G []float64 // gradients of the last batched backward pass
}

func newParam(n int) *Param { return &Param{W: make([]float64, n), G: make([]float64, n)} }

// Layer is one network stage: Dense, LeakyReLU or Tanh. The set is closed —
// the unexported clone method seals it — because the batched kernels in
// batch.go switch over exactly these three types: a stage they did not know
// would run in Forward but act as the identity in every batched pass.
type Layer interface {
	// Forward runs one sample through the stage and returns a layer-owned
	// buffer, reused on the next call: a result is valid until the next
	// Forward on the same layer; callers that retain it must copy.
	Forward(x []float64) []float64
	Params() []*Param
	// clone returns a deep copy with independent parameters.
	clone() Layer
}

// Dense is a fully connected layer: y = W·x + b.
type Dense struct {
	In, Out int
	Weight  *Param // Out×In, row-major
	Bias    *Param // Out

	out []float64
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

// Forward computes W·x + b into the layer-owned output buffer. Each dot
// product is one accumulator adding the products in ascending input order —
// the batched kernels' per-sample sequence. The loop is unrolled by four
// without splitting that accumulator, so the rounding sequence is the same:
// rolled, its five instructions ran single-row serving (LM.Estimate) up to
// 1.5× slower depending on where the linker happened to place them.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: Dense expects input %d, got %d", d.In, len(x))) //lint:allow panicfree shape mismatch is a programmer error
	}
	if d.out == nil {
		d.out = make([]float64, d.Out) //lint:allow hotpathalloc first-call lazy buffer; reused on every later forward
	}
	y := d.out
	for o := 0; o < d.Out; o++ {
		s := d.Bias.W[o]
		row := d.Weight.W[o*d.In : (o+1)*d.In]
		i := 0
		for ; i+4 <= len(x); i += 4 {
			r, v := row[i:i+4:i+4], x[i:i+4:i+4]
			s += r[0] * v[0]
			s += r[1] * v[1]
			s += r[2] * v[2]
			s += r[3] * v[3]
		}
		for ; i < len(x); i++ {
			s += row[i] * x[i]
		}
		y[o] = s
	}
	return y
}

// Params returns the weight and bias tensors.
func (d *Dense) Params() []*Param { return []*Param{d.Weight, d.Bias} }

func (d *Dense) clone() Layer {
	c := &Dense{In: d.In, Out: d.Out, Weight: newParam(d.In * d.Out), Bias: newParam(d.Out)}
	copy(c.Weight.W, d.Weight.W)
	copy(c.Bias.W, d.Bias.W)
	return c
}

// ensureLen returns buf resized to n, reallocating only when capacity is
// exceeded. It is the growth primitive behind the layer-owned buffers.
func ensureLen(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n) //lint:allow hotpathalloc grow-once primitive; steady state returns the resliced buffer
	}
	return buf[:n]
}

// LeakyReLU applies max(x, alpha*x) elementwise. The paper's Table 3 uses
// leaky ReLU between every pair of FC layers.
type LeakyReLU struct {
	Alpha float64
	out   []float64
}

// NewLeakyReLU returns a LeakyReLU with the conventional slope 0.01.
func NewLeakyReLU() *LeakyReLU { return &LeakyReLU{Alpha: 0.01} }

// Forward implements Layer.
func (l *LeakyReLU) Forward(x []float64) []float64 {
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

// Params implements Layer (no parameters).
func (l *LeakyReLU) Params() []*Param { return nil }

func (l *LeakyReLU) clone() Layer { return &LeakyReLU{Alpha: l.Alpha} }

// Tanh applies the hyperbolic tangent elementwise.
type Tanh struct {
	out []float64
}

// NewTanh returns a Tanh activation.
func NewTanh() *Tanh { return &Tanh{} }

// Forward implements Layer.
func (l *Tanh) Forward(x []float64) []float64 {
	l.out = ensureLen(l.out, len(x))
	y := l.out
	for i, v := range x {
		y[i] = math.Tanh(v)
	}
	return y
}

// Params implements Layer.
func (l *Tanh) Params() []*Param { return nil }

func (l *Tanh) clone() Layer { return &Tanh{} }
