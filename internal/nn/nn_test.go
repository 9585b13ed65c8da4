package nn

import (
	"math"
	"math/rand"
	"testing"
)

// meanLoss is the batch's mean loss under the network's current weights,
// through the batched forward.
func meanLoss(n *Network, x Mat, ys [][]float64, loss Loss) float64 {
	out := n.BatchForward(x)
	g := make([]float64, out.Cols)
	var s float64
	for r, y := range ys {
		s += LossGradInto(loss, g, out.Row(r), y)
	}
	return s / float64(x.Rows)
}

// numericGrad estimates d meanLoss/d p.W[i] by central finite differences.
func numericGrad(n *Network, x Mat, ys [][]float64, loss Loss, p *Param, i int) float64 {
	const h = 1e-5
	orig := p.W[i]
	p.W[i] = orig + h
	lp := meanLoss(n, x, ys, loss)
	p.W[i] = orig - h
	lm := meanLoss(n, x, ys, loss)
	p.W[i] = orig
	return (lp - lm) / (2 * h)
}

// checkGradients compares the training path's gradients — BatchForward, the
// loss gradient from LossGradInto, BatchBackward(g, 1/rows) — with finite
// differences of the mean batch loss, for a one-row batch and for a nine-row
// batch that crosses a shard boundary.
func checkGradients(t *testing.T, n *Network, loss Loss, in, out int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, rows := range []int{1, shardRows + 1} {
		x := NewMat(rows, in)
		ys := make([][]float64, rows)
		for r := range ys {
			for i := range x.Row(r) {
				x.Row(r)[i] = rng.NormFloat64()
			}
			ys[r] = make([]float64, out)
			for i := range ys[r] {
				ys[r][i] = rng.NormFloat64()
			}
		}
		pred := n.BatchForward(x)
		g := NewMat(rows, out)
		for r, y := range ys {
			LossGradInto(loss, g.Row(r), pred.Row(r), y)
		}
		n.BatchBackward(g, 1/float64(rows))
		for pi, p := range n.Params() {
			for i := 0; i < len(p.W); i += 7 { // sample every 7th weight for speed
				want := numericGrad(n, x, ys, loss, p, i)
				got := p.G[i]
				if math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
					t.Fatalf("rows=%d param %d idx %d: analytic grad %v, numeric %v", rows, pi, i, got, want)
				}
			}
		}
	}
}

func TestGradCheckDenseMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := NewNetwork(NewDense(4, 5, rng), NewDense(5, 3, rng))
	checkGradients(t, n, MSE{}, 4, 3, 10)
}

func TestGradCheckMLPLeakyReLUMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := MLP(6, 8, 2, 2, rng)
	checkGradients(t, n, MSE{}, 6, 2, 11)
}

func TestGradCheckTanhL1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := NewNetwork(NewDense(3, 6, rng), NewTanh(), NewDense(6, 3, rng), NewTanh())
	checkGradients(t, n, L1{}, 3, 3, 12)
}

func TestGradCheckTanhMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := NewNetwork(NewDense(3, 5, rng), NewTanh(), NewDense(5, 2, rng))
	checkGradients(t, n, MSE{}, 3, 2, 13)
}

func TestXORLearnable(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := MLP(2, 8, 2, 1, rng)
	xs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	ys := [][]float64{{0}, {1}, {1}, {0}}
	opt := NewAdam(0.01)
	var loss float64
	for e := 0; e < 500; e++ {
		var err error
		loss, err = n.TrainBatch(xs, ys, MSE{}, opt)
		if err != nil {
			t.Fatalf("TrainBatch: %v", err)
		}
	}
	if loss > 0.01 {
		t.Fatalf("XOR did not converge, loss=%v", loss)
	}
	for i, x := range xs {
		p := n.Forward(x)[0]
		if math.Abs(p-ys[i][0]) > 0.25 {
			t.Errorf("xor(%v) = %v, want %v", x, p, ys[i][0])
		}
	}
}

func TestLinearRegressionWithAdam(t *testing.T) {
	// y = 2x + 1 is exactly representable by a single Dense layer.
	rng := rand.New(rand.NewSource(7))
	n := NewNetwork(NewDense(1, 1, rng))
	var xs, ys [][]float64
	for i := 0; i < 64; i++ {
		x := rng.Float64()*4 - 2
		xs = append(xs, []float64{x})
		ys = append(ys, []float64{2*x + 1})
	}
	loss, err := n.Fit(xs, ys, MSE{}, NewAdam(0.05), 200, 16, rng)
	if err != nil {
		t.Fatalf("Fit: %v", err)
	}
	if loss > 1e-4 {
		t.Fatalf("linear fit loss = %v", loss)
	}
	d := n.Layers[0].(*Dense)
	if math.Abs(d.Weight.W[0]-2) > 0.05 || math.Abs(d.Bias.W[0]-1) > 0.05 {
		t.Errorf("learned w=%v b=%v, want 2, 1", d.Weight.W[0], d.Bias.W[0])
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := MLP(3, 4, 1, 2, rng)
	c := n.Clone()
	// Forward returns a reused buffer, so snapshot it before training.
	before := append([]float64(nil), c.Forward([]float64{1, 2, 3})...)
	// Train the original; clone output must not change.
	xs := [][]float64{{1, 2, 3}}
	ys := [][]float64{{0, 0}}
	for i := 0; i < 10; i++ {
		if _, err := n.TrainBatch(xs, ys, MSE{}, NewAdam(0.1)); err != nil {
			t.Fatalf("TrainBatch: %v", err)
		}
	}
	after := c.Forward([]float64{1, 2, 3})
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("clone shares parameters with original")
		}
	}
}

func TestCloneCopiesParams(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	src := MLP(3, 4, 1, 2, rng)
	x := []float64{1, 2, 3}
	want := append([]float64(nil), src.Forward(x)...)
	dst := src.Clone()
	// The clone starts parameter-identical: same output, bit for bit.
	got := append([]float64(nil), dst.Forward(x)...)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("clone output %v, want %v", got, want)
		}
	}
	// Training the source must not move the clone.
	xs := [][]float64{x}
	ys := [][]float64{{0, 0}}
	for i := 0; i < 10; i++ {
		if _, err := src.TrainBatch(xs, ys, MSE{}, NewAdam(0.1)); err != nil {
			t.Fatalf("TrainBatch: %v", err)
		}
	}
	after := dst.Forward(x)
	for i := range want {
		if after[i] != want[i] {
			t.Fatal("Clone left shared parameter state")
		}
	}
}

func TestL1LossIdentities(t *testing.T) {
	l1 := func(pred, target []float64) (float64, []float64) {
		g := make([]float64, len(pred))
		return LossGradInto(L1{}, g, pred, target), g
	}
	if got, _ := l1([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Errorf("L1 of equal = %v", got)
	}
	if got, _ := l1([]float64{0, 0}, []float64{1, -3}); got != 2 {
		t.Errorf("L1 = %v, want 2", got)
	}
	if _, g := l1([]float64{2, 0, 1}, []float64{1, 1, 1}); g[0] <= 0 || g[1] >= 0 || g[2] != 0 {
		t.Errorf("L1 grad signs wrong: %v", g)
	}
}

func TestNetworkSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	if got := MLP(7, 128, 3, 4, rng).InSize(); got != 7 {
		t.Errorf("InSize = %d, want 7", got)
	}
	if got := NewNetwork(NewLeakyReLU()).InSize(); got != -1 {
		t.Errorf("InSize without a Dense layer = %d, want -1", got)
	}
}

func TestDenseRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewDense(3, 2, rng)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input size")
		}
	}()
	d.Forward([]float64{1, 2})
}

func TestTrainBatchEmptyIsNoop(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := MLP(2, 4, 1, 1, rng)
	got, err := n.TrainBatch(nil, nil, MSE{}, NewAdam(0.1))
	if err != nil {
		t.Fatalf("TrainBatch: %v", err)
	}
	if got != 0 {
		t.Errorf("empty batch loss = %v", got)
	}
}

func TestAdamConvergesOnIllConditioned(t *testing.T) {
	// Loss surface with wildly different curvatures per dimension; Adam's
	// per-coordinate scaling should still drive the loss near zero.
	rng := rand.New(rand.NewSource(12))
	n := NewNetwork(NewDense(2, 2, rng))
	xs := [][]float64{{100, 0}, {0, 0.01}}
	ys := [][]float64{{300, 0}, {0, -0.02}}
	opt := NewAdam(0.05)
	var l float64
	for i := 0; i < 3000; i++ {
		var err error
		l, err = n.TrainBatch(xs, ys, MSE{}, opt)
		if err != nil {
			t.Fatalf("TrainBatch: %v", err)
		}
	}
	if l > 1e-3 {
		t.Errorf("Adam final loss = %v, want < 1e-3", l)
	}
}
