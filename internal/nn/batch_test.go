package nn

import (
	"math"
	"math/rand"
	"testing"
)

func randBatch(rng *rand.Rand, rows, in, out int) (xs, ys [][]float64) {
	for r := 0; r < rows; r++ {
		x := make([]float64, in)
		y := make([]float64, out)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		xs = append(xs, x)
		ys = append(ys, y)
	}
	return xs, ys
}

func testNets() map[string]func(*rand.Rand) *Network {
	return map[string]func(*rand.Rand) *Network{
		"mlp-leaky": func(rng *rand.Rand) *Network { return MLP(9, 16, 2, 5, rng) },
		"tanh": func(rng *rand.Rand) *Network {
			return NewNetwork(NewDense(9, 12, rng), NewTanh(), NewDense(12, 5, rng))
		},
		"tanh-leaky": func(rng *rand.Rand) *Network {
			return NewNetwork(NewDense(9, 12, rng), NewTanh(), NewDense(12, 7, rng), NewLeakyReLU(), NewDense(7, 5, rng))
		},
	}
}

// TestBatchForwardMatchesSerial: BatchForward must be byte-identical to the
// original per-sample forward pass on every kernel set (the tile Dense
// kernels keep each sample's dot product in the same accumulation order).
func TestBatchForwardMatchesSerial(t *testing.T) {
	for _, set := range kernelSets() {
		t.Run(set, func(t *testing.T) {
			useKernels(t, set)
			for name, mk := range testNets() {
				for _, rows := range []int{1, 3, 8, 19, 32} {
					rng := rand.New(rand.NewSource(41))
					n := mk(rng)
					xs, _ := randBatch(rng, rows, 9, 5)
					x := NewMat(rows, 9)
					x.CopyFromRows(xs)
					got := n.BatchForward(x)
					for r := 0; r < rows; r++ {
						want := referencePredict(n, xs[r])
						for i := range want {
							if got.Row(r)[i] != want[i] {
								t.Fatalf("%s rows=%d: row %d col %d: batched %v != serial %v",
									name, rows, r, i, got.Row(r)[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestBatchBackwardDataMatchesSerial: input gradients from the batched
// backward must be byte-identical to the per-sample reference backward on
// every kernel set.
func TestBatchBackwardDataMatchesSerial(t *testing.T) {
	for _, set := range kernelSets() {
		t.Run(set, func(t *testing.T) {
			useKernels(t, set)
			for name, mk := range testNets() {
				for _, rows := range []int{1, 5, 8, 21} {
					rng := rand.New(rand.NewSource(43))
					n := mk(rng)
					ref := n.Clone()
					xs, _ := randBatch(rng, rows, 9, 5)
					grads := make([][]float64, rows)
					for r := range grads {
						grads[r] = make([]float64, 5)
						for i := range grads[r] {
							grads[r][i] = rng.NormFloat64()
						}
						if r%3 == 0 {
							// The reference skips a zero gradient, the kernels
							// add its ±0 products: the same sum.
							grads[r][rng.Intn(5)] = 0
						}
					}
					x := NewMat(rows, 9)
					x.CopyFromRows(xs)
					n.BatchForward(x)
					g := NewMat(rows, 5)
					g.CopyFromRows(grads)
					dx := n.BatchBackward(g, 1)
					for r := 0; r < rows; r++ {
						want := referenceBackward(ref, referenceForward(ref, xs[r]), grads[r])
						for i := range want {
							if dx.Row(r)[i] != want[i] {
								t.Fatalf("%s rows=%d row=%d col=%d: batched dX %v != serial %v",
									name, rows, r, i, dx.Row(r)[i], want[i])
							}
						}
					}
				}
			}
		})
	}
}

// TestTrainBatchMatchesReferenceWithinOneShard: with the whole batch in a
// single shard there is no reassociation at all, so the batched step must be
// byte-identical to the original per-sample implementation.
func TestTrainBatchMatchesReferenceWithinOneShard(t *testing.T) {
	for _, set := range kernelSets() {
		t.Run(set, func(t *testing.T) {
			useKernels(t, set)
			for _, loss := range []Loss{MSE{}, L1{}} {
				rng := rand.New(rand.NewSource(59))
				a := MLP(9, 16, 2, 5, rng)
				b := a.Clone()
				optA, optB := NewAdam(0.01), NewAdam(0.01)
				xs, ys := randBatch(rng, shardRows, 9, 5)
				for step := 0; step < 5; step++ {
					la, err := a.TrainBatch(xs, ys, loss, optA)
					if err != nil {
						t.Fatalf("TrainBatch: %v", err)
					}
					lb := referenceTrainBatch(b, xs, ys, loss, optB)
					if la != lb {
						t.Fatalf("%T step %d: batched loss %v != reference %v", loss, step, la, lb)
					}
				}
				ap, bp := a.Params(), b.Params()
				for pi := range ap {
					for i := range ap[pi].W {
						if ap[pi].W[i] != bp[pi].W[i] {
							t.Fatalf("%T: param %d idx %d: batched %v != reference %v",
								loss, pi, i, ap[pi].W[i], bp[pi].W[i])
						}
					}
				}
			}
		})
	}
}

// TestTrainBatchMatchesReferenceMultiShard: beyond one shard the gradient
// reduction reassociates floating-point sums, so require tight agreement
// rather than bit equality.
func TestTrainBatchMatchesReferenceMultiShard(t *testing.T) {
	for _, set := range kernelSets() {
		t.Run(set, func(t *testing.T) {
			useKernels(t, set)
			rng := rand.New(rand.NewSource(61))
			a := MLP(9, 16, 2, 5, rng)
			b := a.Clone()
			optA, optB := NewAdam(0.01), NewAdam(0.01)
			xs, ys := randBatch(rng, 37, 9, 5)
			for step := 0; step < 20; step++ {
				if _, err := a.TrainBatch(xs, ys, MSE{}, optA); err != nil {
					t.Fatalf("TrainBatch: %v", err)
				}
				referenceTrainBatch(b, xs, ys, MSE{}, optB)
			}
			ap, bp := a.Params(), b.Params()
			for pi := range ap {
				for i := range ap[pi].W {
					diff := math.Abs(ap[pi].W[i] - bp[pi].W[i])
					if diff > 1e-9*(1+math.Abs(bp[pi].W[i])) {
						t.Fatalf("param %d idx %d: batched %v vs reference %v (diff %v)",
							pi, i, ap[pi].W[i], bp[pi].W[i], diff)
					}
				}
			}
		})
	}
}

// TestTrainBatchZeroAllocsSteadyState is the allocs-per-op acceptance test:
// after warm-up (arena sized, Adam moments built) a train step must not
// allocate.
func TestTrainBatchZeroAllocsSteadyState(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	n := MLP(18, 128, 3, 16, rng)
	xs, ys := randBatch(rng, 32, 18, 16)
	opt := NewAdam(1e-3)
	for i := 0; i < 3; i++ {
		if _, err := n.TrainBatch(xs, ys, MSE{}, opt); err != nil {
			t.Fatalf("warm-up TrainBatch: %v", err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		if _, err := n.TrainBatch(xs, ys, MSE{}, opt); err != nil {
			t.Fatalf("TrainBatch: %v", err)
		}
	})
	if avg != 0 {
		t.Errorf("steady-state TrainBatch allocates %v per op, want 0", avg)
	}
}

// TestTrainBatchErrors replaces the old panic tests: malformed batches now
// return errors.
func TestTrainBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	n := MLP(4, 8, 1, 2, rng)
	cases := []struct {
		name   string
		xs, ys [][]float64
	}{
		{"len mismatch", [][]float64{{1, 2, 3, 4}}, nil},
		{"ragged input", [][]float64{{1, 2, 3, 4}, {1, 2}}, [][]float64{{0, 0}, {0, 0}}},
		{"wrong input width", [][]float64{{1, 2}}, [][]float64{{0, 0}}},
		{"wrong target width", [][]float64{{1, 2, 3, 4}}, [][]float64{{0}}},
	}
	for _, tc := range cases {
		if _, err := n.TrainBatch(tc.xs, tc.ys, MSE{}, NewAdam(0.1)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	if _, err := n.Fit([][]float64{{1, 2, 3, 4}}, nil, MSE{}, NewAdam(0.1), 1, 8, rng); err == nil {
		t.Error("Fit len mismatch: expected error")
	}
}

// TestBatchBackwardAccumulatesLikeSerial: parameter gradients from a batched
// backward over one shard must match the reference's per-sample accumulation.
func TestBatchBackwardAccumulatesLikeSerial(t *testing.T) {
	for _, set := range kernelSets() {
		t.Run(set, func(t *testing.T) {
			useKernels(t, set)
			rng := rand.New(rand.NewSource(83))
			n := MLP(9, 16, 2, 5, rng)
			ref := n.Clone()
			xs, _ := randBatch(rng, shardRows, 9, 5)
			grads := make([][]float64, len(xs))
			for r := range grads {
				grads[r] = make([]float64, 5)
				for i := range grads[r] {
					grads[r][i] = rng.NormFloat64()
				}
			}
			x := NewMat(len(xs), 9)
			x.CopyFromRows(xs)
			n.BatchForward(x)
			g := NewMat(len(xs), 5)
			g.CopyFromRows(grads)
			n.BatchBackward(g, 1)

			for _, p := range ref.Params() {
				clear(p.G)
			}
			for r := range xs {
				referenceBackward(ref, referenceForward(ref, xs[r]), grads[r])
			}
			np, rp := n.Params(), ref.Params()
			for pi := range np {
				for i := range np[pi].G {
					diff := math.Abs(np[pi].G[i] - rp[pi].G[i])
					if diff > 1e-12*(1+math.Abs(rp[pi].G[i])) {
						t.Fatalf("param %d idx %d: batched grad %v vs serial %v",
							pi, i, np[pi].G[i], rp[pi].G[i])
					}
				}
			}
		})
	}
}

// randMat fills a rows×cols matrix with standard normals.
func randMat(rng *rand.Rand, rows, cols int) Mat {
	x := NewMat(rows, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	return x
}

// TestInferBatchMatchesForward pins the tile-resident inference fast path:
// for every row — full 8-lane blocks and the zero-padded partial one —
// InferBatch must be bit-identical to the per-sample Forward, on every
// kernel set, across each elementwise activation kind it keeps in the tile,
// inputs as narrow as one column, and neuron counts that leave every tail
// of the kernels' neuron loops (8·k+1, 4·k+1, 3).
func TestInferBatchMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nets := map[string]*Network{
		"lm-mlp":       MLP(18, 64, 2, 1, rng),
		"leaky":        NewNetwork(NewDense(6, 16, rng), NewLeakyReLU(), NewDense(16, 16, rng), NewLeakyReLU(), NewDense(16, 1, rng)),
		"leaky-narrow": NewNetwork(NewDense(5, 8, rng), NewLeakyReLU(), NewDense(8, 1, rng)),
		"mixed":        NewNetwork(NewDense(7, 9, rng), NewTanh(), NewDense(9, 6, rng), NewLeakyReLU(), NewDense(6, 1, rng)),
		"in1":          NewNetwork(NewDense(1, 13, rng), NewLeakyReLU(), NewDense(13, 1, rng)),
		"in2":          NewNetwork(NewDense(2, 3, rng), NewTanh(), NewDense(3, 1, rng)),
		"in3":          NewNetwork(NewDense(3, 17, rng), NewLeakyReLU(), NewDense(17, 2, rng), NewTanh(), NewDense(2, 1, rng)),
	}
	var rowCounts []int
	for rows := 1; rows <= 17; rows++ {
		rowCounts = append(rowCounts, rows)
	}
	rowCounts = append(rowCounts, 255, 256, 257)
	for _, set := range kernelSets() {
		t.Run(set, func(t *testing.T) {
			useKernels(t, set)
			for name, n := range nets {
				for _, rows := range rowCounts {
					x := randMat(rng, rows, n.Layers[0].(*Dense).In)
					out := make([]float64, rows)
					n.InferBatch(x, out)
					for r := 0; r < rows; r++ {
						if want := n.Forward(x.Row(r))[0]; math.Float64bits(out[r]) != math.Float64bits(want) {
							t.Fatalf("%s rows=%d row %d: InferBatch %v != Forward %v", name, rows, r, out[r], want)
						}
					}
				}
			}
		})
	}
}

// TestInferBatchPoisonStaysInItsLane puts NaN, ±Inf, −0 and a subnormal in
// one row and checks that every other row still equals Forward bit for
// bit — at each lane position of a full block and in the padded partial
// one — and that the poisoned row is NaN there as it is in Forward.
func TestInferBatchPoisonStaysInItsLane(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := NewNetwork(NewDense(6, 16, rng), NewLeakyReLU(), NewDense(16, 9, rng), NewTanh(), NewDense(9, 1, rng))
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64, 1.5}
	const rows = 19
	for _, set := range kernelSets() {
		t.Run(set, func(t *testing.T) {
			useKernels(t, set)
			for _, p := range []int{0, 3, 7, 8, 15, 16, 18} {
				x := randMat(rng, rows, 6)
				copy(x.Row(p), poison)
				out := make([]float64, rows)
				n.InferBatch(x, out)
				for r := 0; r < rows; r++ {
					want := n.Forward(x.Row(r))[0]
					if r == p {
						if !math.IsNaN(out[r]) || !math.IsNaN(want) {
							t.Fatalf("poisoned row %d: InferBatch %v, Forward %v, want NaN from both", p, out[r], want)
						}
						continue
					}
					if math.Float64bits(out[r]) != math.Float64bits(want) {
						t.Fatalf("poison in row %d: row %d InferBatch %v != Forward %v", p, r, out[r], want)
					}
				}
			}
		})
	}
}

// TestInferBatchZeroPadsTail pins the padding of a partial block: after a
// batch of NaN rows has filled the tile, the lanes past the last row of a
// 3-row batch must carry the network's output on the zero row, not the
// stale NaNs (the lanes never mix, so only the tile shows the difference).
func TestInferBatchZeroPadsTail(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := NewNetwork(NewDense(5, 8, rng), NewLeakyReLU(), NewDense(8, 1, rng))
	zero := n.Forward(make([]float64, 5))[0]
	for _, set := range kernelSets() {
		t.Run(set, func(t *testing.T) {
			useKernels(t, set)
			nan := NewMat(16, 5)
			for i := range nan.Data {
				nan.Data[i] = math.NaN()
			}
			out := make([]float64, 16)
			n.InferBatch(nan, out)
			n.InferBatch(randMat(rng, 3, 5), out[:3])
			// Two Dense layers: the input tile (first half) is also the output's.
			for l, v := range n.sc.tile[3:inferLanes] {
				if math.Float64bits(v) != math.Float64bits(zero) {
					t.Fatalf("padding lane %d = %v, want the zero row's output %v", 3+l, v, zero)
				}
			}
		})
	}
}

// TestInferBatchRefusals pins the single-output contract: InferBatch of a
// network with a wider head panics before it writes any of out.
func TestInferBatchRefusals(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := NewMat(4, 6)
	out := []float64{9, 9, 9, 9}
	wide := NewNetwork(NewDense(6, 8, rng), NewLeakyReLU(), NewDense(8, 2, rng))
	defer func() {
		if recover() == nil {
			t.Error("InferBatch accepted a two-output head")
		}
		for i, v := range out {
			if v != 9 {
				t.Fatalf("out[%d] = %v: a refused InferBatch must leave out untouched", i, v)
			}
		}
	}()
	wide.InferBatch(x, out)
}

// TestBatchBackwardAfterInferBatchPanics pins the forward-validity guard:
// InferBatch does not materialize activation matrices, so a BatchBackward
// fed from it must panic instead of silently back-propagating stale state.
func TestBatchBackwardAfterInferBatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := NewNetwork(NewDense(6, 8, rng), NewLeakyReLU(), NewDense(8, 1, rng))
	x := NewMat(4, 6)
	out := make([]float64, 4)
	n.BatchForward(x) // valid forward state…
	n.InferBatch(x, out)
	defer func() {
		if recover() == nil {
			t.Error("BatchBackward after InferBatch did not panic")
		}
	}()
	n.BatchBackward(NewMat(4, 1), 1)
}
