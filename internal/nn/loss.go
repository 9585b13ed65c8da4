package nn

import (
	"fmt"
	"math"
)

// Loss scores a prediction against a target and yields the gradient of the
// loss with respect to the prediction, both in one allocation-free pass (see
// LossGradInto). The set is closed: MSE, L1 and SoftmaxCrossEntropy.
type Loss interface {
	lossGradInto(dst, tmp, pred, target []float64) float64
}

// MSE is the mean squared error ½·mean((p−t)²); its gradient is (p−t)/n.
type MSE struct{}

// L1 is the mean absolute error used for the autoencoder reconstruction loss
// 𝓛_AE = |q − q̂| in §3.3 of the paper. The subgradient at 0 is taken as 0.
type L1 struct{}

// SoftmaxCrossEntropy treats the prediction as raw class logits and the
// target as a one-hot (or soft) distribution: the loss is −Σ t_i log
// softmax(p)_i and its gradient the fused p−t. It is the classifier loss for
// the 3-class discriminator {gen, new, train} in §3.3.
type SoftmaxCrossEntropy struct{}

// SoftmaxInto writes the softmax of logits into dst (which must have the same
// length) and returns dst, with the usual max-shift for numerical stability.
// It allocates nothing; hot paths own dst and reuse it across calls.
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

// LossGradInto returns loss(pred, target) and writes its gradient with
// respect to pred into dst. pred, target and dst must share one non-zero
// length (TrainBatch validates widths before it calls). tmp is scratch at
// least as wide as pred; only SoftmaxCrossEntropy uses it.
func LossGradInto(loss Loss, dst, tmp, pred, target []float64) float64 {
	return loss.lossGradInto(dst, tmp, pred, target)
}
