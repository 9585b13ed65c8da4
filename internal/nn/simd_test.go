package nn

import (
	"math/rand"
	"testing"
)

// TestSIMDMatchesGeneric proves the AVX2 kernels and the pure-Go kernels
// produce bit-identical results: forward activations, dLoss/dInput, and every
// parameter after several optimizer steps. Widths are chosen to exercise the
// k tail (in % 4 != 0) and the odd-neuron tails of the assembly loops.
func TestSIMDMatchesGeneric(t *testing.T) {
	if !simdAvailable {
		t.Skip("no AVX2 on this machine")
	}
	defer func(v bool) { simdEnabled = v }(simdEnabled)

	build := func(seed int64) *Network {
		rng := rand.New(rand.NewSource(seed))
		return NewNetwork(
			NewDense(9, 13, rng), NewLeakyReLU(),
			NewDense(13, 7, rng), NewTanh(),
			NewDense(7, 5, rng), NewTanh(),
		)
	}
	for _, rows := range []int{4, 5, 8, 19, 32} {
		xs, ys := randBatch(rand.New(rand.NewSource(77)), rows, 9, 5)

		simdEnabled = false
		a := build(42)
		optA := NewAdam(0.01)
		var lossA []float64
		for step := 0; step < 5; step++ {
			l, err := a.TrainBatch(xs, ys, MSE{}, optA)
			if err != nil {
				t.Fatal(err)
			}
			lossA = append(lossA, l)
		}
		outA := append([]float64(nil), a.sc.acts[len(a.sc.acts)-1].Row(0)...)

		simdEnabled = true
		b := build(42)
		optB := NewAdam(0.01)
		for step := 0; step < 5; step++ {
			l, err := b.TrainBatch(xs, ys, MSE{}, optB)
			if err != nil {
				t.Fatal(err)
			}
			if l != lossA[step] {
				t.Fatalf("rows=%d step %d: simd loss %v != generic %v", rows, step, l, lossA[step])
			}
		}
		outB := b.sc.acts[len(b.sc.acts)-1].Row(0)
		for i := range outA {
			if outA[i] != outB[i] {
				t.Fatalf("rows=%d: activations diverge at %d: %v vs %v", rows, i, outA[i], outB[i])
			}
		}
		pa, pb := a.params(), b.params()
		for pi := range pa {
			for i := range pa[pi].W {
				if pa[pi].W[i] != pb[pi].W[i] {
					t.Fatalf("rows=%d: param %d diverges at %d: %v vs %v", rows, pi, i, pa[pi].W[i], pb[pi].W[i])
				}
			}
		}
	}
}

// TestSIMDBackwardDataMatchesGeneric checks the data-only backward path
// (generator chaining) is bit-identical between the two kernel sets.
func TestSIMDBackwardDataMatchesGeneric(t *testing.T) {
	if !simdAvailable {
		t.Skip("no AVX2 on this machine")
	}
	defer func(v bool) { simdEnabled = v }(simdEnabled)

	rows := 12
	xs, _ := randBatch(rand.New(rand.NewSource(5)), rows, 9, 5)
	x := NewMat(rows, 9)
	g := NewMat(rows, 5)
	rng := rand.New(rand.NewSource(9))
	for r := 0; r < rows; r++ {
		copy(x.Row(r), xs[r])
		for i := range g.Row(r) {
			g.Row(r)[i] = rng.NormFloat64()
		}
	}

	build := func() *Network {
		rng := rand.New(rand.NewSource(11))
		return NewNetwork(NewDense(9, 14, rng), NewLeakyReLU(), NewDense(14, 5, rng))
	}

	simdEnabled = false
	a := build()
	a.BatchForward(x)
	dxA := a.BatchBackwardData(g)
	keep := make([]float64, 0, rows*9)
	for r := 0; r < rows; r++ {
		keep = append(keep, dxA.Row(r)...)
	}

	simdEnabled = true
	b := build()
	b.BatchForward(x)
	dxB := b.BatchBackwardData(g)
	for r := 0; r < rows; r++ {
		row := dxB.Row(r)
		for i, v := range row {
			if keep[r*9+i] != v {
				t.Fatalf("dX diverges at row %d col %d: %v vs %v", r, i, keep[r*9+i], v)
			}
		}
	}
}
