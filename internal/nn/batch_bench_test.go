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
// forward/loss/backward with the scratch arena and Adam, once per kernel set
// this machine can run, each from a network trained past Adam step t = 356
// (where the bias correction 1 − β1^t rounds to 1.0 and the vector step
// stops dividing by it; every step of an adaptation period is past it).
// Steady state must report 0 allocs/op.
func BenchmarkTrainStepBatched(b *testing.B) {
	for _, set := range kernelSets() {
		b.Run(set, func(b *testing.B) {
			useKernels(b, set)
			n, xs, ys := benchNet()
			opt := NewAdam(0.001)
			for i := 0; i < 360; i++ {
				if _, err := n.TrainBatch(xs, ys, MSE{}, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.TrainBatch(xs, ys, MSE{}, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
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

// inferSink keeps BenchmarkInferBatch's output observable.
var inferSink float64

// BenchmarkInferBatch is the serving path's inference on the LM-mlp shape
// (18 → 64 → 64 → 1): 256 rows (one wire group, the uncached batch path)
// and one row (what a one-row EstimateAll would pay), once per kernel set
// this machine can run. Steady state must report 0 allocs/op.
func BenchmarkInferBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := MLP(18, 64, 2, 1, rng)
	x := randMat(rng, 256, 18)
	out := make([]float64, x.Rows)
	for _, set := range kernelSets() {
		for _, rows := range []int{256, 1} {
			name := set
			if rows == 1 {
				name += "-1row"
			}
			b.Run(name, func(b *testing.B) {
				useKernels(b, set)
				xr := x.View(rows, x.Cols)
				n.InferBatch(xr, out)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.InferBatch(xr, out)
				}
				inferSink = out[0]
			})
		}
	}
}
