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

// inferSink keeps BenchmarkInferBatch's output observable.
var inferSink float64

// BenchmarkInferBatch is the uncached serving path's inference: 256 rows
// (one wire group) through the LM-mlp shape (18 → 64 → 64 → 1), once per
// tile kernel this machine can run. Steady state must report 0 allocs/op.
func BenchmarkInferBatch(b *testing.B) {
	if !simdAvailable {
		b.Skip("no AVX2 on this machine")
	}
	defer func(v bool) { avx512Enabled = v }(avx512Enabled)
	rng := rand.New(rand.NewSource(1))
	n := MLP(18, 64, 2, 1, rng)
	x := randMat(rng, 256, 18)
	out := make([]float64, x.Rows)
	for _, on := range []bool{true, false} {
		name := map[bool]string{false: "avx2", true: "avx512"}[on]
		b.Run(name, func(b *testing.B) {
			if on && !avx512Available {
				b.Skip("no AVX-512 on this machine")
			}
			avx512Enabled = on
			n.InferBatch(x, out)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.InferBatch(x, out)
			}
			inferSink = out[0]
		})
	}
}
