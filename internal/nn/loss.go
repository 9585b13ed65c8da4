package nn

import "math"

// Loss scores a prediction against a target and yields the gradient of the
// loss with respect to the prediction, both in one allocation-free pass (see
// LossGradInto). The set is closed: MSE and L1.
type Loss interface {
	lossGradInto(dst, pred, target []float64) float64
}

// MSE is the mean squared error ½·mean((p−t)²); its gradient is (p−t)/n.
type MSE struct{}

// L1 is the mean absolute error used for the autoencoder reconstruction loss
// 𝓛_AE = |q − q̂| in §3.3 of the paper. The subgradient at 0 is taken as 0.
type L1 struct{}

func (MSE) lossGradInto(dst, pred, target []float64) float64 {
	inv := 1 / float64(len(pred))
	var s float64
	for i := range pred {
		d := pred[i] - target[i]
		s += float64(d * d)
		dst[i] = d * inv
	}
	return 0.5 * s / float64(len(pred))
}

func (L1) lossGradInto(dst, pred, target []float64) float64 {
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

// LossGradInto returns loss(pred, target) and writes its gradient with
// respect to pred into dst. pred, target and dst must share one non-zero
// length (TrainBatch validates widths before it calls).
func LossGradInto(loss Loss, dst, pred, target []float64) float64 {
	return loss.lossGradInto(dst, pred, target)
}
