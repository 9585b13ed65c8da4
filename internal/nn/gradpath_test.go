package nn

import (
	"math"
	"math/rand"
	"testing"
)

// oracleScaledGrads is the gradient path this package shipped before the
// scaled-assign BatchBackward, spelled out with the per-sample reference:
// every shard of shardRows rows accumulates its rows in order into a zeroed
// buffer (referenceBackward adds one sample at a time), the shard buffers are
// added in ascending shard order into zeroed accumulators, and the sum is
// scaled last. It returns one gradient slice per parameter of n.
func oracleScaledGrads(n *Network, x, gOut Mat, scale float64) [][]float64 {
	ref := n.Clone()
	ps := ref.Params()
	total := make([][]float64, len(ps))
	for i, p := range ps {
		total[i] = make([]float64, len(p.G))
	}
	for r0 := 0; r0 < x.Rows; r0 += shardRows {
		for _, p := range ps {
			clear(p.G)
		}
		for r := r0; r < r0+shardRows && r < x.Rows; r++ {
			referenceBackward(ref, referenceForward(ref, x.Row(r)), gOut.Row(r))
		}
		for i, p := range ps {
			for j, g := range p.G {
				total[i][j] += g
			}
		}
	}
	for i := range total {
		for j := range total[i] {
			total[i][j] *= scale
		}
	}
	return total
}

// TestBatchBackwardScaledAssignMatchesOldPath: BatchBackward(g, scale) must
// leave in every p.G exactly the bits of zeroing + per-shard accumulation +
// ascending-shard reduce + scale — for one, two, four and the generic number
// of shards, with and without a 1–3-row scalar tail, on Dense widths that
// leave a k tail (in % 4 != 0), with exact-zero and negative-zero gradient
// entries, a strided gradient matrix, whatever p.G held before, and on
// every kernel set.
func TestBatchBackwardScaledAssignMatchesOldPath(t *testing.T) {
	for _, set := range kernelSets() {
		t.Run(set, func(t *testing.T) {
			useKernels(t, set)
			testScaledAssign(t)
		})
	}
}

func testScaledAssign(t *testing.T) {
	nets := map[string]func(*rand.Rand) *Network{
		"in29": func(rng *rand.Rand) *Network {
			return NewNetwork(NewDense(29, 27, rng), NewLeakyReLU(), NewDense(27, 16, rng), NewLeakyReLU(), NewDense(16, 5, rng), NewTanh())
		},
		"in27": func(rng *rand.Rand) *Network {
			return NewNetwork(NewDense(27, 29, rng), NewLeakyReLU(), NewDense(29, 3, rng))
		},
		"narrow": func(rng *rand.Rand) *Network {
			return NewNetwork(NewDense(3, 6, rng), NewTanh(), NewDense(6, 2, rng))
		},
		// 20 = one 16-column pass + one 4-column pass; 33 outputs = a
		// gradient block of a single neuron; 33 inputs = two passes + a tail.
		"in20out33": func(rng *rand.Rand) *Network {
			return NewNetwork(NewDense(20, 33, rng), NewLeakyReLU(), NewDense(33, 2, rng))
		},
	}
	for name, mk := range nets {
		for _, rows := range []int{1, 3, 4, 8, 9, 16, 31, 32, 33, 100} {
			rng := rand.New(rand.NewSource(int64(1000 + rows)))
			n := mk(rng)
			in, out := n.InSize(), len(referencePredict(n, make([]float64, n.InSize())))
			// g is a column view of a wider matrix: strided rows.
			x, g := NewMat(rows, in), NewMat(rows, out+3).View(rows, out)
			for r := 0; r < rows; r++ {
				for i := range x.Row(r) {
					x.Row(r)[i] = rng.NormFloat64()
					if rng.Intn(5) == 0 {
						x.Row(r)[i] = 0 // products of either sign of zero
					}
				}
				for i := range g.Row(r) {
					g.Row(r)[i] = rng.NormFloat64()
				}
				switch r % 7 {
				case 2:
					g.Row(r)[rng.Intn(out)] = 0
				case 3:
					g.Row(r)[rng.Intn(out)] = math.Copysign(0, -1)
				}
			}
			if rows >= 8 { // an all-zero 4-row block: the kernels' skip path
				for r := 4; r < 8; r++ {
					g.Row(r)[0] = 0
				}
			}
			scale := 1 / float64(rows)
			want := oracleScaledGrads(n, x, g, scale)
			for _, p := range n.Params() { // stale accumulators must not leak in
				for i := range p.G {
					p.G[i] = rng.NormFloat64()
				}
			}
			n.BatchForward(x)
			n.BatchBackward(g, scale)
			for pi, p := range n.Params() {
				for i := range p.G {
					if math.Float64bits(p.G[i]) != math.Float64bits(want[pi][i]) {
						t.Fatalf("%s rows=%d: param %d[%d] = %v (%#x), old path %v (%#x)", name, rows,
							pi, i, p.G[i], math.Float64bits(p.G[i]), want[pi][i], math.Float64bits(want[pi][i]))
					}
				}
			}
		}
	}
}
