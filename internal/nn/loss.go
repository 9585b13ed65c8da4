package nn

import (
	"fmt"
	"math"
)

// Loss scores a prediction against a target and provides the gradient of the
// loss with respect to the prediction.
type Loss interface {
	Loss(pred, target []float64) float64
	Grad(pred, target []float64) []float64
}

// MSE is the mean squared error ½·mean((p−t)²); its gradient is (p−t)/n.
type MSE struct{}

// Loss implements Loss.
func (MSE) Loss(pred, target []float64) float64 {
	mustLossLens(pred, target)
	var s float64
	for i := range pred {
		d := pred[i] - target[i]
		s += d * d
	}
	return 0.5 * s / float64(len(pred))
}

// Grad implements Loss.
func (MSE) Grad(pred, target []float64) []float64 {
	mustLossLens(pred, target)
	g := make([]float64, len(pred))
	inv := 1 / float64(len(pred))
	for i := range pred {
		g[i] = (pred[i] - target[i]) * inv
	}
	return g
}

// L1 is the mean absolute error used for the autoencoder reconstruction loss
// 𝓛_AE = |q − q̂| in §3.3 of the paper.
type L1 struct{}

// Loss implements Loss.
func (L1) Loss(pred, target []float64) float64 {
	mustLossLens(pred, target)
	var s float64
	for i := range pred {
		s += math.Abs(pred[i] - target[i])
	}
	return s / float64(len(pred))
}

// Grad implements Loss. The subgradient at 0 is taken as 0.
func (L1) Grad(pred, target []float64) []float64 {
	mustLossLens(pred, target)
	g := make([]float64, len(pred))
	inv := 1 / float64(len(pred))
	for i := range pred {
		switch {
		case pred[i] > target[i]:
			g[i] = inv
		case pred[i] < target[i]:
			g[i] = -inv
		}
	}
	return g
}

// SoftmaxCrossEntropy treats the prediction as raw class logits and the
// target as a one-hot (or soft) distribution. It is the classifier loss for
// the 3-class discriminator {gen, new, train} in §3.3.
type SoftmaxCrossEntropy struct{}

// Softmax returns the softmax of logits with the usual max-shift for
// numerical stability.
func Softmax(logits []float64) []float64 {
	if len(logits) == 0 {
		return nil
	}
	return SoftmaxInto(make([]float64, len(logits)), logits)
}

// SoftmaxInto writes the softmax of logits into dst (which must have the same
// length) and returns dst. It allocates nothing; hot paths own dst and reuse
// it across calls.
func SoftmaxInto(dst, logits []float64) []float64 {
	if len(dst) != len(logits) {
		panic(fmt.Sprintf("nn: SoftmaxInto dst length %d vs logits %d", len(dst), len(logits))) //lint:allow panicfree buffer-size mismatch is a programmer error
	}
	if len(logits) == 0 {
		return dst
	}
	maxv := logits[0]
	for _, v := range logits[1:] {
		if v > maxv {
			maxv = v
		}
	}
	var sum float64
	for i, v := range logits {
		e := math.Exp(v - maxv)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}

// Loss implements Loss: −Σ t_i log softmax(p)_i.
func (SoftmaxCrossEntropy) Loss(pred, target []float64) float64 {
	mustLossLens(pred, target)
	probs := Softmax(pred)
	var s float64
	for i := range probs {
		if target[i] != 0 {
			s -= target[i] * math.Log(math.Max(probs[i], 1e-12))
		}
	}
	return s
}

// Grad implements Loss with the standard softmax+CE fused gradient p−t.
func (SoftmaxCrossEntropy) Grad(pred, target []float64) []float64 {
	mustLossLens(pred, target)
	probs := Softmax(pred)
	g := make([]float64, len(pred))
	for i := range probs {
		g[i] = probs[i] - target[i]
	}
	return g
}

// OneHot returns a one-hot vector of length n with index k set.
func OneHot(n, k int) []float64 {
	if k < 0 || k >= n {
		panic(fmt.Sprintf("nn: OneHot index %d out of range %d", k, n)) //lint:allow panicfree out-of-range class index is a programmer error
	}
	v := make([]float64, n)
	v[k] = 1
	return v
}

func mustLossLens(pred, target []float64) {
	if len(pred) != len(target) {
		panic(fmt.Sprintf("nn: loss length mismatch %d vs %d", len(pred), len(target))) //lint:allow panicfree callers validate batch widths; direct misuse is a programmer error
	}
	if len(pred) == 0 {
		panic("nn: empty loss inputs") //lint:allow panicfree callers validate batch widths; direct misuse is a programmer error
	}
}

// fusedLoss is implemented by losses that can compute value and gradient in a
// single allocation-free pass. dst receives the gradient; tmp is
// scratch at least as wide as pred (used by softmax). Inputs are
// pre-validated by the batched trainer.
type fusedLoss interface {
	lossGradInto(dst, tmp, pred, target []float64) float64
}

func (MSE) lossGradInto(dst, _, pred, target []float64) float64 {
	inv := 1 / float64(len(pred))
	var s float64
	for i := range pred {
		d := pred[i] - target[i]
		s += d * d
		dst[i] = d * inv
	}
	return 0.5 * s / float64(len(pred))
}

func (L1) lossGradInto(dst, _ []float64, pred, target []float64) float64 {
	inv := 1 / float64(len(pred))
	var s float64
	for i := range pred {
		d := pred[i] - target[i]
		s += math.Abs(d)
		switch {
		case d > 0:
			dst[i] = inv
		case d < 0:
			dst[i] = -inv
		default:
			dst[i] = 0
		}
	}
	return s / float64(len(pred))
}

func (SoftmaxCrossEntropy) lossGradInto(dst, tmp, pred, target []float64) float64 {
	probs := SoftmaxInto(tmp[:len(pred)], pred)
	var s float64
	for i := range probs {
		if target[i] != 0 {
			s -= target[i] * math.Log(math.Max(probs[i], 1e-12))
		}
		dst[i] = probs[i] - target[i]
	}
	return s
}

// LossGradInto computes loss(pred, target) and writes its gradient into dst —
// the same values as loss.Loss and loss.Grad — using the fused,
// allocation-free path when the loss supports it and falling back to the
// allocating interface methods otherwise. tmp is scratch at least as wide as
// pred; only SoftmaxCrossEntropy uses it.
func LossGradInto(loss Loss, dst, tmp, pred, target []float64) float64 {
	if fl, ok := loss.(fusedLoss); ok {
		return fl.lossGradInto(dst, tmp, pred, target)
	}
	copy(dst, loss.Grad(pred, target))
	return loss.Loss(pred, target)
}
