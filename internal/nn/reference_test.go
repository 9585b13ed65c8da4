package nn

import "math"

// This file preserves the original per-sample training step — one heap
// allocation per layer per sample, sequential gradient accumulation — exactly
// as the tree shipped before the batched compute core landed. It is the
// package's only per-sample backward pass: the oracle for the
// batched-equivalence tests and the baseline of BenchmarkTrainStepReference /
// BenchmarkForwardReference. It must not be "optimized": its whole value is
// being the slow, known-good original.

// referenceTrainBatch performs one optimizer step on a minibatch using the
// original allocating per-sample forward/backward, returning the mean loss.
func referenceTrainBatch(n *Network, xs, ys [][]float64, loss Loss, opt *Adam) float64 {
	if len(xs) == 0 {
		return 0
	}
	for _, p := range n.Params() {
		clear(p.G)
	}
	var total float64
	for i := range xs {
		acts := referenceForward(n, xs[i])
		pred := acts[len(acts)-1]
		g := make([]float64, len(pred))
		total += LossGradInto(loss, g, pred, ys[i])
		referenceBackward(n, acts, g)
	}
	scaleGrads(n.Params(), 1/float64(len(xs)))
	opt.Step(n.Params())
	return total / float64(len(xs))
}

// referencePredict runs one sample through the network with the original
// allocating per-layer code and returns the output.
func referencePredict(n *Network, x []float64) []float64 {
	acts := referenceForward(n, x)
	return acts[len(acts)-1]
}

// referenceForward returns the activation at every layer boundary;
// acts[0] is the input, acts[len(Layers)] the output.
func referenceForward(n *Network, x []float64) [][]float64 {
	acts := make([][]float64, 1, len(n.Layers)+1)
	acts[0] = x
	for _, l := range n.Layers {
		switch t := l.(type) {
		case *Dense:
			y := make([]float64, t.Out)
			for o := 0; o < t.Out; o++ {
				s := t.Bias.W[o]
				row := t.Weight.W[o*t.In : (o+1)*t.In]
				for i, xi := range x {
					s += row[i] * xi
				}
				y[o] = s
			}
			x = y
		case *LeakyReLU:
			y := make([]float64, len(x))
			for i, v := range x {
				if v >= 0 {
					y[i] = v
				} else {
					y[i] = t.Alpha * v
				}
			}
			x = y
		case *Tanh:
			y := make([]float64, len(x))
			for i, v := range x {
				y[i] = math.Tanh(v)
			}
			x = y
		}
		acts = append(acts, x)
	}
	return acts
}

// referenceBackward propagates grad through the stack with the original
// allocating per-layer code, accumulating parameter gradients, and returns
// dLoss/dInput.
func referenceBackward(n *Network, acts [][]float64, grad []float64) []float64 {
	for li := len(n.Layers) - 1; li >= 0; li-- {
		in := acts[li]
		switch t := n.Layers[li].(type) {
		case *Dense:
			gx := make([]float64, t.In)
			for o := 0; o < t.Out; o++ {
				g := grad[o]
				if g == 0 {
					continue
				}
				t.Bias.G[o] += g
				row := t.Weight.W[o*t.In : (o+1)*t.In]
				grow := t.Weight.G[o*t.In : (o+1)*t.In]
				for i := 0; i < t.In; i++ {
					grow[i] += g * in[i]
					gx[i] += g * row[i]
				}
			}
			grad = gx
		case *LeakyReLU:
			gx := make([]float64, len(grad))
			for i, g := range grad {
				if in[i] >= 0 {
					gx[i] = g
				} else {
					gx[i] = t.Alpha * g
				}
			}
			grad = gx
		case *Tanh:
			out := acts[li+1]
			gx := make([]float64, len(grad))
			for i, g := range grad {
				v := out[i]
				gx[i] = g * (1 - v*v)
			}
			grad = gx
		}
	}
	return grad
}

func scaleGrads(ps []*Param, s float64) {
	for _, p := range ps {
		for i := range p.G {
			p.G[i] *= s
		}
	}
}
