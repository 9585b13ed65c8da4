package gbt

import (
	"math"
	"math/rand"
	"testing"
)

func TestTreeFitsStepFunction(t *testing.T) {
	// y = 0 for x<0.5, 10 for x>=0.5 — one split suffices.
	var X [][]float64
	var y []float64
	for i := 0; i < 100; i++ {
		x := float64(i) / 100
		X = append(X, []float64{x})
		if x < 0.5 {
			y = append(y, 0)
		} else {
			y = append(y, 10)
		}
	}
	tree := growTree(X, y, TreeConfig{MaxDepth: 2, MinLeafSize: 1})
	if got := tree.Predict([]float64{0.1}); math.Abs(got) > 1e-9 {
		t.Errorf("predict(0.1) = %v, want 0", got)
	}
	if got := tree.Predict([]float64{0.9}); math.Abs(got-10) > 1e-9 {
		t.Errorf("predict(0.9) = %v, want 10", got)
	}
}

func TestTreeSelectsInformativeFeature(t *testing.T) {
	// Feature 0 is noise; feature 1 drives the target.
	rng := rand.New(rand.NewSource(1))
	var X [][]float64
	var y []float64
	for i := 0; i < 200; i++ {
		a := rng.Float64()
		b := rng.Float64()
		X = append(X, []float64{a, b})
		if b > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, -1)
		}
	}
	tree := growTree(X, y, TreeConfig{MaxDepth: 1, MinLeafSize: 5})
	if tree.root.Feature != 1 {
		t.Errorf("root split on feature %d, want 1", tree.root.Feature)
	}
	if math.Abs(tree.root.Threshold-0.5) > 0.05 {
		t.Errorf("threshold = %v, want ~0.5", tree.root.Threshold)
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var X [][]float64
	var y []float64
	for i := 0; i < 300; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		y = append(y, math.Sin(10*x))
	}
	for _, depth := range []int{0, 1, 2, 4} {
		tree := growTree(X, y, TreeConfig{MaxDepth: depth, MinLeafSize: 1})
		if got := nodeDepth(tree.root); got > depth {
			t.Errorf("depth = %d, limit %d", got, depth)
		}
	}
}

func TestTreeMinLeafSize(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{0, 0, 10, 10}
	tree := growTree(X, y, TreeConfig{MaxDepth: 5, MinLeafSize: 3})
	// Only 4 samples with min leaf 3 → no split possible.
	if tree.root.Feature != -1 {
		t.Error("tree split despite MinLeafSize")
	}
	if math.Abs(tree.root.Value-5) > 1e-9 {
		t.Errorf("leaf value = %v, want 5", tree.root.Value)
	}
}

func TestTreeConstantTargetIsLeaf(t *testing.T) {
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{7, 7, 7, 7}
	tree := growTree(X, y, TreeConfig{MaxDepth: 5, MinLeafSize: 1})
	if n := countLeaves(tree.root); n != 1 {
		t.Errorf("constant target produced %d leaves", n)
	}
}

// nodeDepth is the depth of the subtree at n (a lone leaf has depth 0).
func nodeDepth(n *treeNode) int {
	if n == nil || n.Feature < 0 {
		return 0
	}
	return 1 + max(nodeDepth(n.Left), nodeDepth(n.Right))
}

// countLeaves is the number of leaves in the subtree at n.
func countLeaves(n *treeNode) int {
	if n == nil {
		return 0
	}
	if n.Feature < 0 {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

func TestBoostingReducesTrainError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var X [][]float64
	var y []float64
	for i := 0; i < 400; i++ {
		a := rng.Float64()
		b := rng.Float64()
		X = append(X, []float64{a, b})
		y = append(y, 3*a*a+math.Sin(6*b))
	}
	mse := func(r *Regressor) float64 {
		var s float64
		for i := range X {
			d := r.Predict(X[i]) - y[i]
			s += d * d
		}
		return s / float64(len(X))
	}
	weak, err := Fit(X, y, Config{Stages: 1, Rate: 0.1, MaxDepth: 3, MinLeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	strong, err := Fit(X, y, Config{Stages: 200, Rate: 0.1, MaxDepth: 3, MinLeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if mse(strong) >= mse(weak)/4 {
		t.Errorf("boosting barely helped: weak=%v strong=%v", mse(weak), mse(strong))
	}
}

func TestBoostingGeneralizes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(a, b float64) float64 { return 2*a - b }
	var X [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a, b := rng.Float64(), rng.Float64()
		X = append(X, []float64{a, b})
		y = append(y, f(a, b))
	}
	r, err := Fit(X, y, Config{Stages: 300, Rate: 0.1, MaxDepth: 3, MinLeafSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	var s float64
	for i := 0; i < 100; i++ {
		a, b := rng.Float64(), rng.Float64()
		d := r.Predict([]float64{a, b}) - f(a, b)
		s += d * d
	}
	if s/100 > 0.02 {
		t.Errorf("test MSE = %v, want < 0.02", s/100)
	}
}

func TestRegressorEmptyTrainingData(t *testing.T) {
	r, err := Fit(nil, nil, Config{Stages: 100, Rate: 1e-2, MaxDepth: 3, MinLeafSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Predict([]float64{1, 2}); got != 0 {
		t.Errorf("empty regressor predicts %v, want 0", got)
	}
}

func TestRegressorNumTrees(t *testing.T) {
	X := [][]float64{{0}, {1}}
	y := []float64{0, 1}
	r, err := Fit(X, y, Config{Stages: 7, Rate: 0.1, MaxDepth: 1, MinLeafSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.trees) != 7 {
		t.Errorf("fitted %d trees, want 7", len(r.trees))
	}
}

func TestFitRejectsBadInput(t *testing.T) {
	if _, err := Fit([][]float64{{1}}, []float64{1, 2}, Config{Stages: 100, Rate: 1e-2, MaxDepth: 3, MinLeafSize: 2}); err == nil {
		t.Error("Fit accepted mismatched lengths")
	}
	if _, err := Fit([][]float64{{1, 2}, {3}}, []float64{1, 2}, Config{Stages: 100, Rate: 1e-2, MaxDepth: 3, MinLeafSize: 2}); err == nil {
		t.Error("Fit accepted ragged rows")
	}
}
