package gbt

import (
	"math/rand"
	"testing"
)

// Paper Table 3 ensemble shape for LM-gbt: 120 stages, rate 0.05, depth 4,
// min leaf 3, on an 18-feature query workload.
func benchData() ([][]float64, []float64, Config) {
	rng := rand.New(rand.NewSource(7))
	X, y := randData(rng, 1000, 18, 0)
	return X, y, Config{Stages: 120, Rate: 0.05, MaxDepth: 4, MinLeafSize: 3}
}

// BenchmarkGBTFitPresorted is the optimized path: transpose + presort once,
// stable partitions and prefix-sum scans per node.
func BenchmarkGBTFitPresorted(b *testing.B) {
	X, y, cfg := benchData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(X, y, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGBTFitReference is the frozen sort-per-node baseline.
func BenchmarkGBTFitReference(b *testing.B) {
	X, y, cfg := benchData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		referenceFit(X, y, cfg)
	}
}
