package gbt

import (
	"math/rand"
	"testing"
)

func randData(rng *rand.Rand, n, d, dup int) ([][]float64, []float64) {
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		row := make([]float64, d)
		for j := range row {
			if dup > 1 {
				// Quantize to force duplicate feature values (tie handling).
				row[j] = float64(rng.Intn(dup)) / float64(dup)
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		X[i] = row
		y[i] = rng.NormFloat64()
	}
	return X, y
}

// growTree grows one tree with the presorted grower, as each stage of Fit
// does.
func growTree(X [][]float64, y []float64, cfg TreeConfig) *Tree {
	return newGrower(X, y, cfg).fitTree()
}

func sameTree(t *testing.T, a, b *treeNode) {
	t.Helper()
	if (a == nil) != (b == nil) {
		t.Fatal("tree shapes differ (nil mismatch)")
	}
	if a == nil {
		return
	}
	if a.Feature != b.Feature || a.Threshold != b.Threshold || a.Value != b.Value {
		t.Fatalf("nodes differ: {%d %v %v} vs {%d %v %v}",
			a.Feature, a.Threshold, a.Value, b.Feature, b.Threshold, b.Value)
	}
	sameTree(t, a.Left, b.Left)
	sameTree(t, a.Right, b.Right)
}

// TestPresortedTreeMatchesReference: the presorted grower must produce trees
// byte-identical to the sort-per-node reference, including on data with
// heavy feature-value ties.
func TestPresortedTreeMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		n, d int
		dup  int
	}{
		{"continuous", 300, 5, 1},
		{"ties", 300, 4, 7},
		{"tiny", 9, 3, 1},
		{"one-feature", 100, 1, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			X, y := randData(rng, tc.n, tc.d, tc.dup)
			cfg := TreeConfig{MaxDepth: 5, MinLeafSize: 3}
			got := growTree(X, y, cfg)
			want := referenceFitTree(X, y, cfg)
			sameTree(t, got.root, want.root)
		})
	}
}

// TestPresortedEnsembleMatchesReference: full boosted fits agree
// byte-identically across all stages (paper Table 3 shape).
func TestPresortedEnsembleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	X, y := randData(rng, 400, 6, 5)
	cfg := Config{Stages: 30, Rate: 0.05, MaxDepth: 4, MinLeafSize: 3}
	got, err := Fit(X, y, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceFit(X, y, cfg)
	if got.base != want.base || len(got.trees) != len(want.trees) {
		t.Fatalf("ensemble shape differs: base %v vs %v, %d vs %d trees",
			got.base, want.base, len(got.trees), len(want.trees))
	}
	for m := range got.trees {
		sameTree(t, got.trees[m].root, want.trees[m].root)
	}
}
