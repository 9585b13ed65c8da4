package nn

import (
	"math/rand"
	"testing"
)

// Paper Table 3 shape: 3 hidden FC-128 layers, 18 query features, 16 model
// outputs, minibatch 32.
func benchNet() (*Network, [][]float64, [][]float64) {
	rng := rand.New(rand.NewSource(1))
	n := MLP(18, 128, 3, 16, rng)
	xs, ys := randBatch(rng, 32, 18, 16)
	return n, xs, ys
}

// BenchmarkTrainStepBatched is the optimized path: sharded batched
// forward/loss/backward with the scratch arena and (on AVX2 hardware) the
// assembly Dense kernels. Steady state must report 0 allocs/op.
func BenchmarkTrainStepBatched(b *testing.B) {
	n, xs, ys := benchNet()
	opt := NewAdam(0.001)
	if _, err := n.TrainBatch(xs, ys, MSE{}, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.TrainBatch(xs, ys, MSE{}, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainStepReference is the frozen seed implementation the speedup
// ratio is measured against.
func BenchmarkTrainStepReference(b *testing.B) {
	n, xs, ys := benchNet()
	opt := NewAdam(0.001)
	referenceTrainBatch(n, xs, ys, MSE{}, opt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceTrainBatch(n, xs, ys, MSE{}, opt)
	}
}

// BenchmarkBatchForward measures batched inference at the same shape.
func BenchmarkBatchForward(b *testing.B) {
	n, xs, _ := benchNet()
	x := NewMat(len(xs), len(xs[0]))
	x.CopyFromRows(xs)
	n.BatchForward(x)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.BatchForward(x)
	}
}

// BenchmarkForwardReference is per-sample inference via the frozen reference.
func BenchmarkForwardReference(b *testing.B) {
	n, xs, _ := benchNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, x := range xs {
			referencePredict(n, x)
		}
	}
}
