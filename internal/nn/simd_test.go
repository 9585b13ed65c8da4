package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kernelWidths are the Dense widths the kernel-equivalence tests run: one
// column, odd tails of every vector loop (3, 17, 31, 33), whole quads and
// octets (8, 32) and the Table 3 hidden width.
var kernelWidths = []int{1, 3, 8, 17, 31, 32, 33, 128}

// kernelRowCounts are the batch sizes they run: every partial-shard size up
// to two shards plus a tail, and a minibatch of whole shards.
var kernelRowCounts = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 32}

// kernelNet is the equivalence tests' network for one (in, out) pair: both
// Dense shapes, a LeakyReLU (whose backward reads its input) and a Tanh
// (whose backward reads its output).
func kernelNet(in, out int) *Network {
	rng := rand.New(rand.NewSource(int64(1000*in + out)))
	return NewNetwork(NewDense(in, out, rng), NewLeakyReLU(), NewDense(out, in, rng), NewTanh())
}

// kernelNames names each kernel set in test and benchmark output.
var kernelNames = [...]string{genericKernels: "generic", avx2Kernels: "avx2", avx512Kernels: "avx512"}

// kernelSets names the batched-kernel sets this machine can run, fastest
// first: "avx512" (the AVX-512 tile and weight-gradient kernels, AVX2 for
// the rest), "avx2" and "generic" (pure Go). Every set gives the same bits.
func kernelSets() []string {
	var sets []string
	for k := hostKernels; k >= genericKernels; k-- {
		sets = append(sets, kernelNames[k])
	}
	return sets
}

// simdSets returns the kernel sets other than the generic one; the tests
// compare each to "generic" after selecting it with useKernels.
func simdSets(t *testing.T) []string {
	sets := kernelSets()
	if len(sets) == 1 {
		t.Skip("no AVX2 on this machine")
	}
	return sets[:len(sets)-1]
}

// useKernels makes every batched pass and InferBatch run the named set, one
// kernelSets lists, until the test or benchmark ends.
func useKernels(tb testing.TB, set string) {
	old := kernels
	tb.Cleanup(func() { kernels = old })
	kernels = kernelSet(slices.Index(kernelNames[:], set))
}

// sameBits reports whether a and b are the same double bit for bit.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSIMDMatchesGeneric proves every SIMD kernel set — the AVX2 lane tile
// and, where the machine has it, AVX-512 — trains bit for bit like the
// generic Go kernels: the loss of every step, the forward activations of
// every row, and every parameter after the optimizer steps, over every pair
// of kernelWidths and every kernelRowCounts batch.
func TestSIMDMatchesGeneric(t *testing.T) {
	sets := simdSets(t)
	type result struct {
		loss   []float64
		out    []float64
		params [][]float64
	}
	train := func(set string, proto *Network, xs, ys [][]float64) result {
		useKernels(t, set)
		rows, n := len(xs), proto.Clone()
		opt := NewAdam(0.01)
		var res result
		for step := 0; step < 3; step++ {
			l, err := n.TrainBatch(xs, ys, MSE{}, opt)
			if err != nil {
				t.Fatal(err)
			}
			res.loss = append(res.loss, l)
		}
		acts := n.sc.acts[len(n.sc.acts)-1]
		for r := 0; r < rows; r++ {
			res.out = append(res.out, acts.Row(r)...)
		}
		for _, p := range n.params() {
			res.params = append(res.params, append([]float64(nil), p.W...))
		}
		return res
	}
	for _, in := range kernelWidths {
		for _, out := range kernelWidths {
			proto := kernelNet(in, out)
			for _, rows := range kernelRowCounts {
				xs, ys := randBatch(rand.New(rand.NewSource(int64(rows))), rows, in, in)
				want := train("generic", proto, xs, ys)
				for _, set := range sets {
					got := train(set, proto, xs, ys)
					for i := range want.loss {
						if !sameBits(got.loss[i], want.loss[i]) {
							t.Fatalf("%s %d→%d rows=%d step %d: loss %v, generic %v", set, in, out, rows, i, got.loss[i], want.loss[i])
						}
					}
					for i := range want.out {
						if !sameBits(got.out[i], want.out[i]) {
							t.Fatalf("%s %d→%d rows=%d: output %d = %v, generic %v", set, in, out, rows, i, got.out[i], want.out[i])
						}
					}
					for pi := range want.params {
						for i := range want.params[pi] {
							if !sameBits(got.params[pi][i], want.params[pi][i]) {
								t.Fatalf("%s %d→%d rows=%d: param %d[%d] = %v, generic %v", set, in, out, rows, pi, i, got.params[pi][i], want.params[pi][i])
							}
						}
					}
				}
			}
		}
	}
}

// TestSIMDBackwardDataMatchesGeneric checks one BatchForward/BatchBackward
// — the path 𝔾's gradient takes into 𝔼 — bit for bit between the generic
// and every SIMD kernel set: outputs, dLoss/dInput and every parameter
// gradient, over the kernelWidths pairs and kernelRowCounts batches, once
// clean, once with a poison row (NaN, ±Inf, −0 and a subnormal) at the
// first and at the last row, and once each with a +Inf and a NaN weight in
// the last Dense layer and an all-zero output gradient on the last row. The
// generic kernels keep every lane in its own accumulators, so matching them
// shows the poison stays in its own lane of every tile and turns the weight
// gradients into the same NaNs on every kernel set; the non-finite weight
// shows that no set skips an exact-zero gradient (0·Inf is NaN).
func TestSIMDBackwardDataMatchesGeneric(t *testing.T) {
	sets := simdSets(t)
	poison := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64}
	run := func(set string, n *Network, x, g Mat) []float64 {
		useKernels(t, set)
		var all []float64
		y := n.BatchForward(x)
		for r := 0; r < x.Rows; r++ {
			all = append(all, y.Row(r)...)
		}
		dx := n.BatchBackward(g, 0.25)
		for r := 0; r < x.Rows; r++ {
			all = append(all, dx.Row(r)...)
		}
		for _, p := range n.params() {
			all = append(all, p.G...)
		}
		return all
	}
	for _, in := range kernelWidths {
		for _, out := range kernelWidths {
			n := kernelNet(in, out) // BatchBackward writes only the gradients
			check := func(what string, rows int, x, g Mat) {
				want := run("generic", n, x, g)
				for _, set := range sets {
					got := run(set, n, x, g)
					for i := range want {
						if !sameBits(got[i], want[i]) {
							t.Fatalf("%s %d→%d rows=%d %s: value %d = %v, generic %v", set, in, out, rows, what, i, got[i], want[i])
						}
					}
				}
			}
			last := n.Layers[2].(*Dense).Weight.W
			for _, rows := range kernelRowCounts {
				rng := rand.New(rand.NewSource(int64(7*rows + in)))
				for _, p := range []int{-1, 0, rows - 1} {
					x, g := randMat(rng, rows, in), randMat(rng, rows, in)
					if p >= 0 {
						for k := range x.Row(p) {
							x.Row(p)[k] = poison[k%len(poison)]
						}
					}
					check(fmt.Sprintf("poison row %d", p), rows, x, g)
				}
				for _, w := range []float64{math.Inf(1), math.NaN()} {
					x, g := randMat(rng, rows, in), randMat(rng, rows, in)
					clear(g.Row(rows - 1))
					keep := last[0]
					last[0] = w
					check(fmt.Sprintf("weight %v", w), rows, x, g)
					last[0] = keep
				}
			}
		}
	}
}

// TestAdamMatchesGenericPastBiasCorrection pins the vector Adam step to the
// scalar loop bit for bit on both sides of t = 356, where c1 = 1 − β1^t
// first rounds to exactly 1.0 and the vector step stops dividing by it.
func TestAdamMatchesGenericPastBiasCorrection(t *testing.T) {
	sets := simdSets(t)
	if c1 := 1 - math.Pow(0.9, 355); c1 == 1 {
		t.Fatalf("c1 at t = 355 is already 1")
	}
	if c1 := 1 - math.Pow(0.9, 356); c1 != 1 {
		t.Fatalf("c1 at t = 356 is %v, want exactly 1", c1)
	}
	step := func(set string, t0 int) []float64 {
		useKernels(t, set)
		rng := rand.New(rand.NewSource(int64(t0)))
		p := &Param{W: make([]float64, 37), G: make([]float64, 37)}
		opt := NewAdam(0.001)
		opt.t = t0 - 1
		for s := 0; s < 3; s++ {
			for i := range p.G {
				p.G[i] = rng.NormFloat64()
			}
			p.G[s] = math.SmallestNonzeroFloat64
			opt.Step([]*Param{p})
		}
		return append(append(p.W, opt.m[p]...), opt.v[p]...)
	}
	for _, t0 := range []int{1, 354, 355, 356, 357, 2000} {
		want := step("generic", t0)
		for _, set := range sets {
			for i, v := range step(set, t0) {
				if !sameBits(v, want[i]) {
					t.Fatalf("%s from t=%d: value %d = %v, generic %v", set, t0, i, v, want[i])
				}
			}
		}
	}
}
